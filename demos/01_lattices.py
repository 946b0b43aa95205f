"""Building finite lattices and the basic operations on them.

Run:  python demos/01_lattices.py
"""

from critlat import (
    PartialLattice,
    builtin,
    dual,
    embed_partial,
    enumerate_subuniverses,
    is_isomorphic,
    lattice_dot,
    product,
    subuniverse_closure,
    validate_lattice,
)

# A lattice is given by its element labels and its cover relation.  The five
# element modular lattice with three atoms:
M3 = validate_lattice(
    ["0", "x1", "x2", "x3", "1"],
    [("0", "x1"), ("0", "x2"), ("0", "x3"),
     ("x1", "1"), ("x2", "1"), ("x3", "1")],
    name="M3")
print("M3:", M3.labels)
print("meet(x1, x2) =", M3.meet("x1", "x2"), " join(x1, x2) =", M3.join("x1", "x2"))

# The same lattice ships as a builtin, together with chains, Boolean cubes,
# the pentagon N5, and the free bounded lattice on two generators:
N5 = builtin("N5")
print("N5 is self-dual:", is_isomorphic(N5, dual(N5)) is not None)

# Direct products act componentwise; single-character labels concatenate.
square = product(builtin("2"), builtin("2"))
print("2 x 2:", square.labels, " meet(01, 10) =", square.meet("01", "10"))

# Subuniverses are subsets closed under meet and join.
F22 = builtin("F22")
sub, incl = subuniverse_closure(F22, ["x1", "x2"])
print("closure of {x1, x2} in F22:", sub.labels)
print("M3 has", len(enumerate_subuniverses(M3)), "subuniverses")

# Partial lattices keep only the operations whose value stays inside a
# chosen subset; they are the right notion for embedding questions.
cube = builtin("bool:3")
K = PartialLattice(cube, ["000", "100", "110", "011", "111"])
print("join(100, 011) defined:", K.join_defined("100", "011"),
      "-> ", K.join("100", "011"))
print("meet(110, 011) defined:", K.meet_defined("110", "011"))

# M3 embeds into M4 but not into N5 (no three pairwise-incomparable elements
# with the right meets and joins exist there).
pattern = PartialLattice(M3, bounded=False)
print("M3 pattern into M:4:", embed_partial(pattern, builtin("M:4")) is not None)
print("M3 pattern into N5: ", embed_partial(pattern, N5) is not None)

# Hasse diagrams render to DOT for graphviz.
print()
print(lattice_dot(N5))
