"""Chain diagrams and the directing construction.

The chain diagram of a bounded lattice L over a set of spanning chains has
the bounds at the bottom, the chains above it, sublattices generated by pairs
of chains above those, and L itself on top, all tied by inclusions.  Its
image under Con is the combinatorial core that liftings must reproduce.

Run:  python demos/04_chain_diagrams.py
"""

from critlat import (
    IndexPoset,
    TOP,
    apply_conc,
    base_diagram,
    builtin,
    chain_diagram_of_partial,
    con_lattice,
    directing_diagram,
    export_dot,
    extend_diagram,
    glued_diagram,
)

C1, C2, C3 = ("0", "x1", "1"), ("0", "x2", "1"), ("0", "x3", "1")

# The index poset over a chain set: bottom, singletons, admissible pairs, top.
ip = IndexPoset([C1, C2, C3])
print("index poset:", [str(n) for n in ip.ic])

# The chain diagram of M3 over its three spanning chains.
M3 = builtin("M:3")
D, chains = chain_diagram_of_partial(M3, M3.labels)
print("chain diagram nodes and sizes:")
for n in D.poset.elements:
    print("   ", n, "->", D.lattices[n].n, "elements")
print("restriction to the bottom layer is the base diagram:",
      D.restrict(D.poset.jc).equal(base_diagram(chains)))

# Apply Con nodewise; each node's Con is held as J(Con), its join-irreducible
# congruences, and Con itself is built only on request.  Below the top
# everything is distributive, so J(Con) there is an antichain and Con is
# Boolean.
S = apply_conc(D)
print("Con sizes:", {str(n): con_lattice(D.lattices[n]).n for n in D.poset.elements})
print("all non-top nodes Boolean:",
      all(S.J[n].boolean_atoms() is not None for n in D.poset.elements if not n.is_top))

# The directing diagram over three chains: one copy of the pattern per
# isotone surjection of the third chain onto a three-element chain, glued by
# a product over the bottom layer.  Liftings of its Con image force
# congruence chains at the third node to be direct.
dd, T = directing_diagram(builtin("M:3"), C1, C2, C3, with_t=True)
print("directing diagram: factors =", len(T), ", top size =",
      dd.lattices[TOP].n)

# Diagrams over a chain set extend to a larger chain set; the new chain
# enters through its collapse onto the bounds.
ext = extend_diagram(dd, [("0", "w", "1")])
print("after extension:", len(ext.poset.elements), "nodes")

# Gluing the chain diagram of M3 with one directing diagram per admissible
# triple of chains produces the full construction; its top is a 7-fold power.
g = glued_diagram(M3, M3.labels, builtin("M:3"))
print("glued diagram: factors =", g.factor_count,
      ", top size =", g.diagram.lattices[TOP].n)

print()
print(export_dot(D).splitlines()[0], "... (DOT output elided)")
