"""Poset-indexed diagrams of finite lattices.

The index posets are built from a set of spanning chains: the bottom layer
holds the two-element lattice of bounds, singleton nodes hold the chains,
pair nodes hold the sublattices generated by two chains, and a top node holds
the whole lattice.  Products over a lower subset glue several diagrams that
agree on that subset; the directing construction forces congruence chains of
any lifting to be direct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .congruence import JoinIrreducibles, conc_of_hom
from .errors import (
    BadChainShapes,
    BudgetExceeded,
    CritlatError,
    EmptyChainSet,
    NotLowerSubset,
    NotSpanning,
    PreconditionFailed,
    RestrictionMismatch,
    TooFewElements,
)
from .lattice import (
    DEFAULT_PRODUCT_CAP,
    FiniteLattice,
    Homomorphism,
    _hom_failure,
    _same_lattice,
    _sublattice_from_indices,
    builtin,
    is_distributive,
    lattice_from_json,
    lattice_to_json,
    product,
    product_coords,
    product_index,
    spanning_chains,
    subuniverse_closure,
    validate_lattice,
)

Chain = tuple  # tuple of labels, bottom to top

APPLY_CONC_NODE_BUDGET = 200
DOT_NODE_LIMIT = 2000   # export_dot draws larger nodes as one placeholder


def _chain_key(c: Chain):
    return (len(c), c)


@dataclass(frozen=True)
class DiagNode:
    """A node of an index poset: a set of chains, or the top marker (None)."""
    chains: Optional[tuple]

    @property
    def is_top(self):
        return self.chains is None

    def key(self):
        if self.is_top:
            return (3,)
        return (min(len(self.chains), 2), tuple(_chain_key(c) for c in self.chains))

    def __str__(self):
        if self.is_top:
            return "T"
        return "{" + "|".join("<".join(c) for c in self.chains) + "}"

    def __repr__(self):
        return str(self)


TOP = DiagNode(None)
EMPTY = DiagNode(())


def node_of(*chains) -> DiagNode:
    return DiagNode(tuple(sorted((tuple(c) for c in chains), key=_chain_key)))


class FinitePoset:
    """A finite poset as an explicit element list plus a reflexive relation."""

    def __init__(self, elements, le_pairs):
        self.elements = tuple(elements)
        rel = set(le_pairs)
        rel.update((e, e) for e in self.elements)
        self._le = frozenset(rel)
        self._ups = None

    def le(self, a, b) -> bool:
        return (a, b) in self._le

    def _up_sets(self):
        """For each element position, the positions above it, ascending."""
        if self._ups is None:
            pos = {}
            for k, e in enumerate(self.elements):
                pos.setdefault(e, []).append(k)
            ups = [[] for _ in self.elements]
            for a, b in self._le:
                for k in pos.get(a, ()):
                    ups[k].extend(pos.get(b, ()))
            self._ups = [sorted(u) for u in ups]
        return self._ups

    def pairs(self):
        """All ordered pairs a <= b, in element order."""
        els = self.elements
        return [(els[a], els[b]) for a, up in enumerate(self._up_sets())
                for b in up]

    def strict_triples(self):
        """All a < b < c, in element order."""
        els, ups = self.elements, self._up_sets()
        return [(els[a], els[b], els[c])
                for a in range(len(els)) for b in ups[a] if b != a
                for c in ups[b] if c != b]

    def is_lower_subset(self, subset) -> bool:
        sub = set(subset)
        return all(a in sub
                   for b in sub for a in self.elements if self.le(a, b))

    def restrict(self, subset):
        keep = [e for e in self.elements if e in set(subset)]
        return FinitePoset(keep, [(a, b) for (a, b) in self._le
                                  if a in set(keep) and b in set(keep)])

    def __eq__(self, other):
        return (isinstance(other, FinitePoset)
                and self.elements == other.elements and self._le == other._le)

    def __hash__(self):
        return hash((self.elements, self._le))


class IndexPoset(FinitePoset):
    """The nested index posets over a chain set: bottom node, singletons,
    admissible pairs, and a top node above everything."""

    def __init__(self, chains):
        chains = sorted({tuple(c) for c in chains}, key=_chain_key)
        for c in chains:
            if not c:
                raise EmptyChainSet("chains must be nonempty")
        self.chains = tuple(chains)
        jc = [EMPTY] + [node_of(c) for c in self.chains]
        pairs = []
        for c, d in itertools.combinations(self.chains, 2):
            if (len(c) == 3 and len(d) == 3) or set(c) <= set(d) or set(d) <= set(c):
                pairs.append(node_of(c, d))
        pairs.sort(key=lambda p: p.key())
        kc = jc + pairs
        ic = kc + [TOP]
        le = []
        for p in ic:
            for q in ic:
                if q.is_top or (not p.is_top and set(p.chains) <= set(q.chains)):
                    le.append((p, q))
        super().__init__(ic, le)
        self.jc = tuple(jc)
        self.kc = tuple(kc)
        self.ic = tuple(ic)


def build_index_posets(chains) -> IndexPoset:
    """JC/KC/IC over a set of chains; a pair {C, D} is admissible when both
    chains have length 2 or one contains the other."""
    return IndexPoset(chains)


def law_failures(poset, objects, maps, edge_laws=None):
    """Yield the functor-law failures of a diagram: ("identity-edge", p) per
    node, then per edge ("missing-edge", p, q) or what edge_laws(p, q, f)
    yields (not asked of identity edges that passed), then ("commutativity",
    p, q, r) per triangle whose three edges exist.  The maps are
    Homomorphisms or ConcMaps; objects[p] is what their identity is built on."""
    identities = set()
    for p in poset.elements:
        f = maps.get((p, p))
        if f is not None and f.equal_map(type(f).identity(objects[p])):
            identities.add(p)
        else:
            yield ("identity-edge", p)
    for (p, q) in poset.pairs():
        f = maps.get((p, q))
        if f is None:
            yield ("missing-edge", p, q)
        elif edge_laws is not None and not (p == q and p in identities):
            yield from edge_laws(p, q, f)
    for (p, q, r) in poset.strict_triples():
        if {(p, r), (q, r), (p, q)} <= maps.keys() and \
                not maps[(p, r)].equal_map(maps[(q, r)].compose(maps[(p, q)])):
            yield ("commutativity", p, q, r)


def _raise_first(failures, name):
    for kind, *nodes in failures:
        raise CritlatError(f"{name} fails {kind} at {', '.join(map(str, nodes))}")


def _lattice_edge_laws(p, q, f):
    if _hom_failure(f.source, f.target, f.mapping) is not None:
        yield ("edge-not-hom", p, q)
    if not f.preserves_bounds:
        yield ("edge-not-bounded", p, q)


class LatticeDiagram:
    """A functor from a finite poset to lattices: one bounded homomorphism
    per ordered pair, commuting."""

    def __init__(self, poset: FinitePoset, lattices: dict, maps: dict, validate=True):
        self.poset = poset
        self.lattices = dict(lattices)
        self.maps = dict(maps)
        if validate:
            self.validate()

    def law_failures(self):
        """law_failures() with every edge a bounded homomorphism."""
        return law_failures(self.poset, self.lattices, self.maps, _lattice_edge_laws)

    def validate(self):
        """Raise on a missing node lattice, an edge with the wrong source or
        target, or the first failure of law_failures()."""
        for p in self.poset.elements:
            if p not in self.lattices:
                raise CritlatError(f"missing lattice at node {p}")
        for (p, q) in self.poset.pairs():
            f = self.maps.get((p, q))
            if f is not None and not _same_lattice(f.source, self.lattices[p]):
                raise CritlatError(f"map at {p} -> {q} has wrong source")
            if f is not None and not _same_lattice(f.target, self.lattices[q]):
                raise CritlatError(f"map at {p} -> {q} has wrong target")
        _raise_first(self.law_failures(), "diagram")

    def restrict(self, nodes) -> "LatticeDiagram":
        sub = self.poset.restrict(nodes)
        lat = {n: self.lattices[n] for n in sub.elements}
        mp = {(p, q): self.maps[(p, q)] for (p, q) in sub.pairs()}
        return LatticeDiagram(sub, lat, mp, validate=False)

    def equal(self, other: "LatticeDiagram") -> bool:
        return (self.poset == other.poset
                and all(_same_lattice(self.lattices[n], other.lattices[n])
                        for n in self.poset.elements)
                and all(self.maps[pq].equal_map(other.maps[pq]) for pq in self.poset.pairs()))

    def __repr__(self):
        return f"<LatticeDiagram on {len(self.poset.elements)} nodes>"


class SemilatticeDiagram:
    """J(Con) of each node, with join-preserving transition maps."""

    def __init__(self, poset, J: dict, maps: dict, of_diagram=None):
        self.poset = poset
        self.J = dict(J)
        self.maps = dict(maps)
        self.of_diagram = of_diagram

    def validate(self):
        """Raise on the first failure of the functor laws."""
        _raise_first(law_failures(self.poset, self.J, self.maps), "Conc diagram")

    def __repr__(self):
        return f"<SemilatticeDiagram on {len(self.poset.elements)} nodes>"


# --- E(C): the base diagram ---

def _chain_lattice(chain: Chain) -> FiniteLattice:
    return validate_lattice(chain, list(zip(chain, chain[1:])),
                            name="<".join(chain))


def _bounds_of(chains, default=("0", "1")):
    if not chains:
        return default
    b, t = chains[0][0], chains[0][-1]
    for c in chains:
        if c[0] != b or c[-1] != t:
            raise BadChainShapes("chains do not share their extremities")
    return b, t


def base_diagram(chains, bounds=None) -> LatticeDiagram:
    """The diagram over JC: bounds at the bottom node, each chain at its
    singleton node, bound-preserving maps upward."""
    ip = build_index_posets(chains)
    b, t = _bounds_of(ip.chains, bounds or ("0", "1"))
    e_bot = validate_lattice([b, t], [(b, t)], name=f"{b}<{t}")
    lattices = {EMPTY: e_bot}
    maps = {(EMPTY, EMPTY): Homomorphism.identity(e_bot)}
    poset = FinitePoset(ip.jc, [(EMPTY, n) for n in ip.jc])
    for c in ip.chains:
        node = node_of(c)
        lat = _chain_lattice(c)
        lattices[node] = lat
        maps[(node, node)] = Homomorphism.identity(lat)
        maps[(EMPTY, node)] = Homomorphism(
            e_bot, lat, np.array([0, lat.n - 1], dtype=np.int32), check="none")
    return LatticeDiagram(poset, lattices, maps)


# --- chain diagrams ---

def _check_spanning_chain(L, c: Chain):
    idxs = [L.index(x) for x in c]
    if idxs[0] != L.bottom_i or idxs[-1] != L.top_i:
        raise NotSpanning(f"chain {c} does not run from 0 to 1")
    for a, b in zip(idxs, idxs[1:]):
        if a == b or not L.leq_i(a, b):
            raise NotSpanning(f"{c} is not a chain of {L!r}")


def _require_distributive(lattices, what):
    for nd, lat in lattices.items():
        ok, witness = (True, None) if nd.is_top else is_distributive(lat)
        if not ok:
            raise CritlatError(f"non-top {what} node {nd} is not distributive: {witness}")


def chain_diagram(L, chains) -> LatticeDiagram:
    """The chain diagram of L over a set of spanning chains: bounds, chains,
    sublattices generated by pairs of chains, then L itself, all inclusions."""
    ip = build_index_posets(chains)
    for c in ip.chains:
        _check_spanning_chain(L, c)
    base = base_diagram(ip.chains, bounds=(L.bottom, L.top))
    lattices = dict(base.lattices)
    lattices[TOP] = L
    for nd in ip.ic:
        if nd.is_top or nd in lattices:
            continue
        gens = sorted({x for c in nd.chains for x in c})
        sub, _ = subuniverse_closure(L, gens)
        lattices[nd] = sub
    _require_distributive(lattices, "chain-diagram")
    maps = {}
    for (p, q) in ip.pairs():
        src, tgt = lattices[p], lattices[q]
        maps[(p, q)] = Homomorphism(
            src, tgt, np.array([tgt.index(x) for x in src.labels], dtype=np.int32),
            check="none")
    return LatticeDiagram(ip, lattices, maps)


def spanning_chains_of_subset(L, subset, lengths=(2, 3)):
    """Spanning chains with all elements inside `subset`, of the given lengths."""
    sub = set(subset)
    if L.bottom not in sub or L.top not in sub:
        raise NotSpanning("subset must contain both bounds")
    return [c for c in spanning_chains(L, lengths) if set(c) <= sub]


def chain_diagram_of_partial(L, subset) -> tuple:
    """Chain diagram of the spanning subset K inside L: the chain set is all
    spanning chains of K of length 2 or 3.  Returns (diagram, chains)."""
    chains = spanning_chains_of_subset(L, subset)
    return chain_diagram(L, chains), chains


# --- products of diagrams over a lower subset ---

def product_over(j_nodes, diagrams: Sequence[LatticeDiagram],
                 cap=DEFAULT_PRODUCT_CAP, with_projections=True):
    """Product of several diagrams over a common lower subset J.

    Nodes in J stay untouched (all factors must agree there); nodes outside J
    become direct products, with transition maps acting componentwise;
    products above `cap` elements get the lazy representation.  Returns
    (diagram, projections) where projections[t] maps nodes to the canonical
    projection onto factor t (None when with_projections is off).
    """
    if not diagrams:
        raise CritlatError("need at least one diagram")
    first = diagrams[0]
    poset = first.poset
    for d in diagrams[1:]:
        if d.poset != poset:
            raise RestrictionMismatch("diagrams use different index posets")
    j_nodes = list(j_nodes)
    if not poset.is_lower_subset(j_nodes):
        raise NotLowerSubset(f"{j_nodes} is not a lower subset")
    jset = set(j_nodes)
    if not all(d.restrict(j_nodes).equal(first.restrict(j_nodes)) for d in diagrams[1:]):
        raise RestrictionMismatch(f"factors disagree on {j_nodes}")
    if len(diagrams) == 1:
        proj = {n: Homomorphism.identity(first.lattices[n]) for n in poset.elements}
        return first, [proj]

    lattices = {}
    sizes = {}
    for n in poset.elements:
        if n in jset:
            lattices[n] = first.lattices[n]
        else:
            lattices[n] = product(*[d.lattices[n] for d in diagrams],
                                  cap=cap, allow_lazy=True)
            sizes[n] = [d.lattices[n].n for d in diagrams]

    def coords(n):
        """Coordinates of every element of node n, one array per factor."""
        if n in jset:
            return [np.arange(lattices[n].n)] * len(diagrams)
        return product_coords(sizes[n], np.arange(lattices[n].n))

    maps = {}
    for (p, q) in poset.pairs():
        src, tgt = lattices[p], lattices[q]
        if p == q:
            maps[(p, q)] = Homomorphism.identity(src)
        elif p in jset and q in jset:
            maps[(p, q)] = first.maps[(p, q)]
        else:
            mp = product_index(sizes[q], [d.maps[(p, q)].mapping[c]
                                          for d, c in zip(diagrams, coords(p))])
            maps[(p, q)] = Homomorphism(src, tgt, mp, check="none")

    result = LatticeDiagram(poset, lattices, maps)
    if not with_projections:
        return result, None
    projections = [{} for _ in diagrams]
    for n in poset.elements:
        node_coords = coords(n)
        for t, d in enumerate(diagrams):
            projections[t][n] = (
                Homomorphism.identity(lattices[n]) if n in jset else
                Homomorphism(lattices[n], d.lattices[n], node_coords[t], check="none"))
    return result, projections


# --- diagram extension ---

def _collapse_to_bounds(chain_lat, target, bot_label, top_label):
    """x -> bot if x < 1_C, top if x = 1_C, landing in `target`."""
    bot_i, top_i = target.index(bot_label), target.index(top_label)
    mp = np.array([bot_i] * (chain_lat.n - 1) + [top_i], dtype=np.int32)
    return Homomorphism(chain_lat, target, mp, check="none")


def extend_diagram(B: LatticeDiagram, new_chains) -> LatticeDiagram:
    """Extend a diagram over IC(C) to IC(C') for C' containing extra chains.

    Requires the restriction of B to JC to equal the base diagram.  Each new
    chain C' contributes its own singleton node, pair nodes carrying the old
    chain of the pair, and maps that factor through the collapse of C' onto
    the bounds.
    """
    ip = B.poset
    if not isinstance(ip, IndexPoset):
        raise PreconditionFailed("extend_diagram needs an IndexPoset-indexed diagram")
    bounds = (B.lattices[EMPTY].labels[0], B.lattices[EMPTY].labels[1])
    if not B.restrict(ip.jc).equal(base_diagram(ip.chains, bounds=bounds)):
        raise PreconditionFailed("restriction to JC is not the base diagram")
    out = B
    for c in sorted({tuple(c) for c in new_chains} - set(ip.chains), key=_chain_key):
        out = _extend_one(out, c)
    return out


def _extend_one(B: LatticeDiagram, new: Chain) -> LatticeDiagram:
    old = B.poset
    assert isinstance(old, IndexPoset)
    bot_label = B.lattices[EMPTY].labels[0]
    top_label = B.lattices[EMPTY].labels[1]
    if new[0] != bot_label or new[-1] != top_label:
        raise BadChainShapes("new chain must share the diagram's extremities")
    ip = build_index_posets(list(old.chains) + [new])
    new_single = node_of(new)
    new_lat = _chain_lattice(new)
    lattices = dict(B.lattices)
    lattices[new_single] = new_lat
    for nd in ip.ic:
        if nd in lattices or nd.is_top:
            continue
        # a fresh pair node {C, new}: carries the old chain C
        others = [c for c in nd.chains if c != new]
        lattices[nd] = B.lattices[node_of(others[0])]
    maps = {}
    e_bot = B.lattices[EMPTY]
    for (p, q) in ip.pairs():
        if (p, q) in B.maps:
            maps[(p, q)] = B.maps[(p, q)]
            continue
        src, tgt = lattices[p], lattices[q]
        if p == q:
            maps[(p, q)] = Homomorphism.identity(src)
        elif p == EMPTY:
            maps[(p, q)] = Homomorphism(
                src, tgt,
                np.array([tgt.index(bot_label), tgt.index(top_label)],
                         dtype=np.int32), check="none")
        elif p == new_single and q.is_top:
            maps[(p, q)] = B.maps[(EMPTY, TOP)].compose(
                _collapse_to_bounds(new_lat, e_bot, bot_label, top_label))
        elif p == new_single:
            # q = {C, new}: collapse new onto the bounds of C
            maps[(p, q)] = _collapse_to_bounds(new_lat, tgt, bot_label, top_label)
        elif not p.is_top and new in (q.chains or ()):
            # q = {C, new} with p = {C}: the identity on C
            maps[(p, q)] = Homomorphism.identity(src)
        elif not p.is_top and new in (p.chains or ()) and q.is_top:
            # p = {C, new} carrying C: reuse the old map from {C}
            others = [c for c in p.chains if c != new]
            maps[(p, q)] = B.maps[(node_of(others[0]), TOP)]
        else:
            raise CritlatError(f"unhandled extension edge {p} -> {q}")
    return LatticeDiagram(ip, lattices, maps)


# --- directing diagrams ---

def _isotone_surjections(m_src: int, m_tgt: int):
    """All non-decreasing surjective index maps {0..m_src-1} -> {0..m_tgt-1}."""
    out = []
    for cuts in itertools.combinations(range(1, m_src), m_tgt - 1):
        img = []
        level = 0
        for i in range(m_src):
            while level < len(cuts) and i >= cuts[level]:
                level += 1
            img.append(level)
        out.append(tuple(img))
    return out


def _check_generator(kgen):
    for nm in ("M:3", "N5"):
        ref = builtin(nm)
        if kgen.labels == ref.labels and tuple(kgen.covers) == tuple(ref.covers):
            return
    raise BadChainShapes(
        "the directing generator must be the builtin M:3 or N5 lattice")


def directing_diagram(kgen, c1, c2, c3, with_t=False):
    """The directing construction over three chains.

    c1 and c2 must have length 2; c3 has length 2 or contains both.  One
    copy of the pattern diagram is built per isotone surjection of c3 onto a
    three-element chain, and the copies are glued by their product over JC.
    A lifting of the Conc image of this diagram forces every congruence chain
    at the c3 node to be direct once the c1 and c2 nodes hold direct ones.
    """
    _check_generator(kgen)
    c1, c2, c3 = tuple(c1), tuple(c2), tuple(c3)
    if len({c1, c2, c3}) != 3:
        raise BadChainShapes("the three chains must be distinct")
    if len(c1) != 3 or len(c2) != 3:
        raise BadChainShapes("c1 and c2 must have length 2")
    if len(c3) != 3 and not (set(c1) <= set(c3) and set(c2) <= set(c3)):
        raise BadChainShapes("c3 must have length 2 or contain c1 and c2")
    bot, top = _bounds_of([c1, c2, c3])
    ip = build_index_posets([c1, c2, c3])
    base = base_diagram(ip.chains)
    role = {c1: "x1", c2: "x2", c3: "x3"}
    surjections = _isotone_surjections(len(c3), 3)
    d3_labels = ["0", "x3", "1"]

    factors = []
    for t in surjections:
        lattices = dict(base.lattices)
        lattices[TOP] = kgen
        for nd in ip.ic:
            if nd.is_top or nd in lattices:
                continue
            ca, cb = nd.chains
            gens = sorted({kgen.index(v) for v in ("0", role[ca], role[cb], "1")})
            lattices[nd], _ = _sublattice_from_indices(kgen, gens)
        maps = {}
        for (p, q) in ip.pairs():
            src, tgt = lattices[p], lattices[q]
            if p == q:
                maps[(p, q)] = Homomorphism.identity(src)
            elif p == EMPTY:
                maps[(p, q)] = Homomorphism(
                    src, tgt, np.array([tgt.bottom_i, tgt.top_i], dtype=np.int32),
                    check="none")
            elif p == node_of(c3) and q != node_of(c3):
                mp = np.array([tgt.index(d3_labels[t[k]]) for k in range(len(c3))],
                              dtype=np.int32)
                maps[(p, q)] = Homomorphism(src, tgt, mp, check="none")
            elif not p.is_top and len(p.chains) == 1:
                c = p.chains[0]
                translated = ["0"] + [role[c]] * (len(c) - 2) + ["1"]
                mp = np.array([tgt.index(v) for v in translated], dtype=np.int32)
                maps[(p, q)] = Homomorphism(src, tgt, mp, check="none")
            else:
                mp = np.array([tgt.index(v) for v in src.labels], dtype=np.int32)
                maps[(p, q)] = Homomorphism(src, tgt, mp, check="none")
        factors.append(LatticeDiagram(ip, lattices, maps))

    glued, _ = product_over(ip.jc, factors, with_projections=False)
    if not glued.restrict(ip.jc).equal(base):
        raise CritlatError("directing diagram does not restrict to the base diagram")
    return (glued, surjections) if with_t else glued


# --- the glued diagram of a partial sublattice ---

@dataclass
class GluedDiagram:
    diagram: LatticeDiagram
    chains: tuple
    triples: tuple          # admissible (c1, c2, d) role triples
    factor_count: int       # 1 + number of triples


def admissible_triples(chains):
    """Ordered triples (c1, c2, d): c1, c2 distinct of length 2, d distinct
    from both, with d of length 2 or containing both."""
    chains = sorted({tuple(c) for c in chains}, key=_chain_key)
    len2 = [c for c in chains if len(c) == 3]
    out = []
    for c1 in len2:
        for c2 in len2:
            if c1 == c2:
                continue
            for d in chains:
                if d in (c1, c2):
                    continue
                if len(d) == 3 or (set(c1) <= set(d) and set(c2) <= set(d)):
                    out.append((c1, c2, d))
    return out


def glued_diagram(L, subset, kgen, cap=DEFAULT_PRODUCT_CAP) -> GluedDiagram:
    """Chain diagram of the subset glued with one directing diagram per
    admissible triple; the product is taken over JC.

    Guarantees: nodes below the top stay finite and distributive, and the
    restriction to JC is the base diagram.  Products beyond `cap` elements
    switch to the lazy componentwise representation.
    """
    subset = list(subset)
    if len(subset) < 5:
        raise TooFewElements("the spanning subset needs at least five elements")
    chains = spanning_chains_of_subset(L, subset)
    ip = build_index_posets(chains)
    base, _ = chain_diagram_of_partial(L, subset)
    factors = [base]
    triples = admissible_triples(chains)
    for (c1, c2, d) in triples:
        dd = directing_diagram(kgen, c1, c2, d)
        factors.append(extend_diagram(dd, chains))
    glued, _ = product_over(ip.jc, factors, cap=cap, with_projections=False)
    _require_distributive(glued.lattices, "glued")
    if not glued.restrict(ip.jc).equal(base.restrict(ip.jc)):
        raise CritlatError("glued diagram does not restrict to the base diagram")
    return GluedDiagram(glued, tuple(chains), tuple(triples), len(factors))


# --- Conc applied to a diagram ---

def apply_conc(D: LatticeDiagram) -> SemilatticeDiagram:
    """Nodewise J(Con), edgewise induced maps, functor laws re-verified.
    Nodes above APPLY_CONC_NODE_BUDGET elements are refused."""
    J = {}
    for n in D.poset.elements:
        if D.lattices[n].n > APPLY_CONC_NODE_BUDGET:
            raise BudgetExceeded(
                f"node {n} has {D.lattices[n].n} elements, above the Conc budget")
        J[n] = JoinIrreducibles(D.lattices[n])
    maps = {(p, q): conc_of_hom(D.maps[(p, q)], J[p], J[q]) for (p, q) in D.poset.pairs()}
    S = SemilatticeDiagram(D.poset, J, maps, of_diagram=D)
    S.validate()
    return S


# --- diagram isomorphism (used to compare extension orders) ---

def diagram_isomorphic(d1: LatticeDiagram, d2: LatticeDiagram) -> bool:
    """Node-by-node lattice isomorphisms commuting with every transition map."""
    from .lattice import all_isomorphisms
    if d1.poset != d2.poset:
        return False
    nodes = d1.poset.elements
    options = []
    for n in nodes:
        isos = all_isomorphisms(d1.lattices[n], d2.lattices[n])
        if not isos:
            return False
        options.append(isos)
    chosen = {}

    def fits(k, iso):
        n = nodes[k]
        for m, other in chosen.items():
            if d1.poset.le(m, n):
                if not iso.compose(d1.maps[(m, n)]).equal_map(
                        d2.maps[(m, n)].compose(other)):
                    return False
            if d1.poset.le(n, m):
                if not other.compose(d1.maps[(n, m)]).equal_map(
                        d2.maps[(n, m)].compose(iso)):
                    return False
        return True

    def search(k):
        if k == len(nodes):
            return True
        for iso in options[k]:
            if fits(k, iso):
                chosen[nodes[k]] = iso
                if search(k + 1):
                    return True
                del chosen[nodes[k]]
        return False

    return search(0)


# --- serialization ---

def _node_id(n) -> str:
    return str(n)


def diagram_to_json(D: LatticeDiagram) -> dict:
    ids = {n: _node_id(n) for n in D.poset.elements}
    return {
        "poset": {
            "nodes": [ids[n] for n in D.poset.elements],
            "leq": [[ids[p], ids[q]] for (p, q) in D.poset.pairs() if p != q],
        },
        "lattices": {ids[n]: lattice_to_json(D.lattices[n])
                     for n in D.poset.elements},
        "maps": {f"{ids[p]}<={ids[q]}": D.maps[(p, q)].as_label_dict()
                 for (p, q) in D.poset.pairs() if p != q},
    }


def diagram_from_json(obj) -> LatticeDiagram:
    nodes = list(obj["poset"]["nodes"])
    le = [(a, b) for a, b in obj["poset"]["leq"]]
    poset = FinitePoset(nodes, le)
    lattices = {n: lattice_from_json(obj["lattices"][n]) for n in nodes}
    maps = {}
    for n in nodes:
        maps[(n, n)] = Homomorphism.identity(lattices[n])
    for key, mp in obj["maps"].items():
        a, b = key.split("<=")
        maps[(a, b)] = Homomorphism.from_labels(lattices[a], lattices[b], mp,
                                                check="none")
    return LatticeDiagram(poset, lattices, maps)


def export_dot(D: LatticeDiagram) -> str:
    """DOT rendering: one cluster per node holding its Hasse diagram, one
    edge per covering pair of the index poset.  Nodes above DOT_NODE_LIMIT
    elements are summarized by a single placeholder."""
    lines = ["digraph diagram {", "  compound=true;", "  rankdir=BT;"]
    ids = {n: k for k, n in enumerate(D.poset.elements)}
    anchor = {}
    for n in D.poset.elements:
        L = D.lattices[n]
        k = ids[n]
        lines.append(f'  subgraph cluster_{k} {{')
        lines.append(f'    label="{n}";')
        if L.n > DOT_NODE_LIMIT:
            lines.append(f'    n{k}_0 [label="{L.n} elements", shape=box];')
        else:
            for i, lab in enumerate(L.labels):
                lines.append(f'    n{k}_{i} [label="{lab}", shape=plaintext];')
            for i, j in L.covers:
                lines.append(f"    n{k}_{i} -> n{k}_{j};")
        lines.append("  }")
        anchor[n] = f"n{k}_0"
    strict = [(p, q) for (p, q) in D.poset.pairs() if p != q]
    covering = [(p, q) for (p, q) in strict
                if not any(p != r != q and D.poset.le(p, r) and D.poset.le(r, q)
                           for r in D.poset.elements)]
    for (p, q) in covering:
        lines.append(
            f'  {anchor[p]} -> {anchor[q]} '
            f'[ltail=cluster_{ids[p]}, lhead=cluster_{ids[q]}, style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
