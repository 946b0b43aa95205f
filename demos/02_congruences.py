"""Congruences: principal congruences, the Con lattice, congruence chains.

Run:  python demos/02_congruences.py
"""

import numpy as np

from critlat import (
    ConcMap,
    builtin,
    con_lattice,
    find_congruence_chains,
    is_boolean,
    is_congruence_chain,
    is_congruence_preserving_extension,
    is_direct_congruence_chain,
    is_simple,
    principal_congruence,
    quotient,
    subuniverse_closure,
)

# The smallest congruence identifying two elements is read off J(Con L), the
# join-irreducible congruences, with no closure: its down-set is the join of
# the Theta(j_*, j) with j <= a v b and j not <= a ^ b.
c2 = builtin("chain:2")
theta = principal_congruence(c2, "0", "c1")
print("Theta(0, c1) on the 3-chain:", theta.label_blocks())

# M3 is simple: collapsing any cover collapses everything.
print("M3 simple:", is_simple(builtin("M:3")))

# The pentagon has exactly five congruences; its Con lattice is not Boolean.
N5 = builtin("N5")
conN5 = con_lattice(N5)
print("Con(N5):", conN5.n, "congruences, boolean:", is_boolean(conN5))
for t in conN5.cons:
    print("   ", t.label_blocks())

# Quotients: collapsing the critical pair of N5 yields the square.
th = principal_congruence(N5, "x1", "x2")
Q, proj = quotient(N5, th)
print("N5 / Theta(x1,x2) has", Q.n, "elements")

# Congruence chains: in a lattice with Boolean congruence lattice, a chain is
# a congruence chain when its steps enumerate the atoms of Con bijectively.
sq = builtin("bool:2")
for w in find_congruence_chains(sq, "00", "11"):
    print("congruence chain:", " < ".join(w.elements))

# Directness compares the step congruences against a reference chain through
# a fixed isomorphism; swapping the atoms breaks it.  A Conc map is held by
# its values on 0 and on the join-irreducible congruences, as down-set masks
# over J(Con): here 0 goes to 0 and the k-th atom of Con(sq) to the k-th atom
# of Con(C), whose down-set is row k of conC.J.leq.T.
consq = con_lattice(sq)
C = builtin("chain:2")
conC = con_lattice(C)
zero = np.zeros(len(conC.J), dtype=bool)
images = conC.J.leq.T
xi = ConcMap(consq.J, conC.J, zero, images)
print("00 < 01 < 11 direct:", is_direct_congruence_chain(sq, ["00", "01", "11"], xi, C))
print("00 < 10 < 11 direct:", is_direct_congruence_chain(sq, ["00", "10", "11"], xi, C))

# A chain is a congruence chain of B exactly when B extends it
# congruence-preservingly; maximal chains of distributive lattices qualify.
F22 = builtin("F22")
chain = ["0", "x1^x2", "x1", "x1vx2", "1"]
sub, _ = subuniverse_closure(F22, chain)
print("maximal chain of F22 is a congruence chain:",
      is_congruence_chain(F22, chain) is not None)
print("  ... equivalently F22 extends it congruence-preservingly:",
      is_congruence_preserving_extension(sub, F22))
