"""Liftings, their verification, and the embedding they carry.

A lifting of a congruence-lattice diagram is a diagram of lattices whose
nodewise Con is naturally isomorphic to it.  When the lifting of a chain
diagram holds direct congruence chains for every chain, the generating
lattice embeds into the top node; if the chains run the other way, the dual
lifting provides them.

Run:  python demos/05_liftings.py
"""

from critlat import (
    Homomorphism,
    builtin,
    chain_diagram_of_partial,
    check_directing_property,
    directing_diagram,
    dual_lifting,
    extract_embedding,
    extract_embedding_auto,
    identity_lifting,
    retraction_congruence_chain,
    verify_lifting,
)
from critlat.errors import MissingDirectChain

M3 = builtin("M:3")
D, _ = chain_diagram_of_partial(M3, M3.labels)

# The tautological lifting: the diagram lifts its own Con image.
lift = identity_lifting(D)
print("identity lifting verifies:", verify_lifting(lift).ok)

# Extraction: each interior element x rides the direct congruence chain of
# the {0,x,1} node; the result is an embedding onto the top lattice.
h, report = extract_embedding(lift, M3.labels)
print("extracted map:", h)
print("injective:", report.injective,
      "| operation checks:", len(report.operation_checks),
      "| congruence checks:", len(report.congruence_checks))

# Dualizing the lifting reverses every chain: the original orientation now
# has no direct chains, and the automatic wrapper dualizes back.
dl = dual_lifting(lift)
try:
    extract_embedding(dl, M3.labels)
except MissingDirectChain as exc:
    print("dual lifting blocks the original orientation:", exc.node)
h2, report2 = extract_embedding_auto(dl, M3.labels)
print("after dualizing: ok =", report2.ok, ", dualized =", report2.dualized)

# The directing property: once the first two nodes hold direct chains, every
# congruence chain at the third node is forced to be direct.
C1, C2, C3 = ("0", "x1", "1"), ("0", "x2", "1"), ("0", "x3", "1")
dd = directing_diagram(builtin("N5"), C1, C2, C3)
ok, counterexample = check_directing_property(identity_lifting(dd), C1, C2, C3)
print("directing property holds over N5:", ok)

# Congruence chains out of retractions: the diagonal of the square with its
# two projections yields a two-step chain through both coatom complements.
two, sq = builtin("2"), builtin("bool:2")
f = Homomorphism.from_labels(two, sq, {"0": "00", "1": "11"})
p0 = Homomorphism.from_labels(sq, two, {"00": "0", "01": "0", "10": "1", "11": "1"})
p1 = Homomorphism.from_labels(sq, two, {"00": "0", "01": "1", "10": "0", "11": "1"})
u, v, w = retraction_congruence_chain(f, p0, p1)
print("retraction chain:", " < ".join(w.elements),
      "with steps", [t.label_blocks() for t in w.sigma])
