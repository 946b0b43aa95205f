"""Congruences: principal congruences, the Con lattice, congruence chains.

Run:  python demos/02_congruences.py
"""

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

# The smallest congruence identifying two elements is computed by a
# union-find closure under one-sided meets and joins.
c2 = builtin("chain:2")
theta = principal_congruence(c2, "0", "c1")
print("Theta(0, c1) on the 3-chain:", theta.label_blocks())

# M3 is simple: collapsing any cover collapses everything.
print("M3 simple:", is_simple(builtin("M:3")))

# The pentagon has exactly five congruences; its Con lattice is not Boolean.
N5 = builtin("N5")
conN5 = con_lattice(N5)
print("Con(N5):", conN5.n, "congruences, boolean:", is_boolean(conN5)[0])
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
# its values on 0 and on the join-irreducible congruences; from_mapping reads
# one from a mapping between the congruence lists.
consq = con_lattice(sq)
C = builtin("chain:2")
conC = con_lattice(C)
import numpy as np
mapping = np.zeros(consq.n, dtype=np.int32)
mapping[consq.bottom_i] = conC.bottom_i
mapping[consq.top_i] = conC.top_i
a0, a1 = consq.atoms
t0, t1 = conC.atoms
mapping[a0], mapping[a1] = t0, t1
xi = ConcMap.from_mapping(consq, conC, mapping)
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
