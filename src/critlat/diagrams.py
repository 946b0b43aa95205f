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
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from .congruence import ConcMemo
from .errors import (
    BadChainShapes,
    CritlatError,
    DuplicateLabel,
    EmptyChainSet,
    FormatError,
    NotLowerSubset,
    NotSpanning,
    PreconditionFailed,
    RestrictionMismatch,
    TooFewElements,
)
from .lattice import (
    FiniteLattice,
    Homomorphism,
    _dot_string,
    _hom_failure,
    _closed_indices,
    _require_dense,
    _same_lattice,
    _sublattice_from_indices,
    lattice_from_json,
    lattice_to_json,
    product,
    product_coords,
    product_index,
    spanning_chains,
)

Chain = tuple  # tuple of labels, bottom to top

DOT_NODE_LIMIT = 2000   # export_dot draws larger nodes as one placeholder


def _chain_key(c: Chain):
    return (len(c), c)


@dataclass(frozen=True)
class DiagNode:
    """A node of an index poset: a set of chains, or the top marker (None).
    Its hash is taken once, when it is built."""
    chains: Optional[tuple]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.chains,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: a str hash is per process
        return DiagNode, (self.chains,)

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
        # a backslash before each \ < | { } of a label keeps distinct ids apart
        return "{" + "|".join("<".join(re.sub(r"([\\<|{}])", r"\\\1", x) for x in c)
                              for c in self.chains) + "}"

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

    def is_lower_subset(self, subset) -> bool:
        sub = set(subset)
        return all(a in sub
                   for b in sub for a in self.elements if self.le(a, b))

    def restrict(self, subset):
        sub = set(subset)
        keep = [e for e in self.elements if e in sub]
        kept = set(keep)
        return FinitePoset(keep, [(a, b) for (a, b) in self._le
                                  if a in kept and b in kept])

    def __eq__(self, other):
        return (isinstance(other, FinitePoset)
                and self.elements == other.elements and self._le == other._le)

    def __hash__(self):
        return hash((self.elements, self._le))


class IndexPoset(FinitePoset):
    """The nested index posets JC/KC/IC over a chain set: bottom node,
    singletons, admissible pairs, and a top node above everything.  A pair
    {C, D} is admissible when both chains have length 2 or one contains the
    other.  Below a node other than the top lie the bottom node, the
    singletons of its chains and the node itself."""

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
        le = [(p, TOP) for p in ic]
        for q in kc:
            le += [(EMPTY, q)] + [(node_of(c), q) for c in q.chains]
        super().__init__(ic, le)
        self.jc = tuple(jc)
        self.kc = tuple(kc)
        self.ic = tuple(ic)


def law_failures(poset: FinitePoset, lattices, maps):
    """Yield the functor-law failures of the maps over poset:
    ("identity-edge", p) per node whose map p -> p is missing or not the
    identity, then per edge p <= q ("missing-edge", p, q) or
    ("edge-not-hom", p, q) and ("edge-not-bounded", p, q) (not asked of
    identity edges that passed), then ("commutativity", p, q, r) per triangle
    p < q < r whose three edges exist.  The poset's order must be
    transitive; edges are looked up once, by position."""
    els = poset.elements
    # out[a][b]: the map from node a to node b above it, or None
    out = [{b: maps.get((p, els[b])) for b in up}
           for p, up in zip(els, poset._up_sets())]
    identities = set()
    for a, p in enumerate(els):
        f = out[a].get(a)
        if f is not None and np.array_equal(f.mapping, np.arange(lattices[p].n)):
            identities.add(a)
        else:
            yield ("identity-edge", p)
    for a, p in enumerate(els):
        for b, f in out[a].items():
            if f is None:
                yield ("missing-edge", p, els[b])
            elif not (a == b and a in identities):
                if _hom_failure(f.source, f.target, f.mapping) is not None:
                    yield ("edge-not-hom", p, els[b])
                if not f.preserves_bounds:
                    yield ("edge-not-bounded", p, els[b])
    for a, p in enumerate(els):
        for b, f in out[a].items():
            if b == a or f is None:
                continue
            for c, g in out[b].items():
                h = out[a].get(c)
                if c != b and g is not None and h is not None \
                        and not np.array_equal(h.mapping, g.mapping[f.mapping]):
                    yield ("commutativity", p, els[b], els[c])


class LatticeDiagram:
    """A functor from a finite poset to lattices: one bounded homomorphism
    per ordered pair, commuting.

    The constructor, for diagrams from outside the library, raises on a
    missing node lattice, an edge with the wrong source or target, or the
    first failure of law_failures(); the library builds its own through
    _trusted.  lattices and maps are read-only views, so a diagram stays
    lawful once built, and its memo (a ConcMemo) holds J(Con) and Conc of
    its lattices and maps for its lifetime."""

    def __init__(self, poset: FinitePoset, lattices: dict, maps: dict):
        self.poset = poset
        self.lattices = MappingProxyType(dict(lattices))
        self.maps = MappingProxyType(dict(maps))
        self.memo = ConcMemo()
        for p in poset.elements:
            if p not in self.lattices:
                raise CritlatError(f"missing lattice at node {p}")
        for (p, q) in poset.pairs():
            f = self.maps.get((p, q))
            if f is not None and not _same_lattice(f.source, self.lattices[p]):
                raise CritlatError(f"map at {p} -> {q} has wrong source")
            if f is not None and not _same_lattice(f.target, self.lattices[q]):
                raise CritlatError(f"map at {p} -> {q} has wrong target")
        for kind, *nodes in law_failures(poset, self.lattices, self.maps):
            raise CritlatError(f"diagram fails {kind} at {', '.join(map(str, nodes))}")

    @classmethod
    def _trusted(cls, poset, lattices, maps) -> "LatticeDiagram":
        """A diagram the library built, lawful by construction; nothing is
        checked.  Its maps are, with the reason each construction is lawful:
        - inclusions of sublattices of L that all hold L's 0 and 1
          (chain_diagram): bounded homomorphisms, and inclusions compose;
        - monotone maps between chains that keep both ends (the entry of the
          bounds in base_diagram and _extend_one, the collapse onto them, the
          isotone surjections of c3 in directing_diagram): bounded
          homomorphisms, and collapse after entry is the identity;
        - label maps into the generator (directing_diagram): each edge sends
          its source's labels to their images in a sublattice of the
          generator that holds them, so edges compose as the label maps do;
        - restriction, dual and product (restrict, dual_diagram,
          product_over): a sub-functor, a bounded homomorphism L -> M is one
          L^d -> M^d, and componentwise maps commute factor by factor."""
        D = cls.__new__(cls)
        D.poset = poset
        D.lattices, D.maps = MappingProxyType(dict(lattices)), MappingProxyType(dict(maps))
        D.memo = ConcMemo()
        return D

    def restrict(self, nodes) -> "LatticeDiagram":
        sub = self.poset.restrict(nodes)
        lat = {n: self.lattices[n] for n in sub.elements}
        mp = {(p, q): self.maps[(p, q)] for (p, q) in sub.pairs()}
        return LatticeDiagram._trusted(sub, lat, mp)

    def equal(self, other: "LatticeDiagram") -> bool:
        return (self.poset == other.poset
                and all(_same_lattice(self.lattices[n], other.lattices[n])
                        for n in self.poset.elements)
                and all(self.maps[pq].equal_map(other.maps[pq]) for pq in self.poset.pairs()))

    def __repr__(self):
        return f"<LatticeDiagram on {len(self.poset.elements)} nodes>"


class SemilatticeDiagram:
    """J(Con) of each node of of_diagram, with join-preserving transition maps."""

    def __init__(self, J: dict, maps: dict, of_diagram):
        self.J = dict(J)
        self.maps = dict(maps)
        self.of_diagram = of_diagram

    poset = property(lambda self: self.of_diagram.poset)

    def __repr__(self):
        return f"<SemilatticeDiagram on {len(self.poset.elements)} nodes>"


# --- E(C): the base diagram ---

def _chain_lattice(chain: Chain) -> FiniteLattice:
    """The chain of these labels, bottom to top, from its own tables: its
    order is the index order, its meet the min and its join the max."""
    if len(set(chain)) < len(chain):
        dup = next(x for k, x in enumerate(chain) if x in chain[:k])
        raise DuplicateLabel(f"duplicate label {dup!r}")
    n = len(chain)
    ks = np.arange(n, dtype=np.int32)
    return FiniteLattice(chain, ks[:, None] <= ks, np.minimum.outer(ks, ks),
                         np.maximum.outer(ks, ks), name="<".join(chain),
                         covers=tuple(zip(range(n), range(1, n))), ext=list(range(n)))


def _bounds_of(chains, default):
    if not chains:
        return default
    b, t = chains[0][0], chains[0][-1]
    for c in chains:
        if c[0] != b or c[-1] != t:
            raise BadChainShapes("chains do not share their extremities")
    return b, t


def _jc_lattices(chains, b, t):
    """The lattices at the JC nodes: b < t at the bottom node, each chain at
    its singleton node."""
    lattices = {EMPTY: _chain_lattice((b, t))}
    for c in chains:
        lattices[node_of(c)] = _chain_lattice(c)
    return lattices


def base_diagram(chains, bounds=None) -> LatticeDiagram:
    """The diagram over JC: bounds at the bottom node, each chain at its
    singleton node, bound-preserving maps upward."""
    ip = IndexPoset(chains)
    lattices = _jc_lattices(ip.chains, *_bounds_of(ip.chains, bounds or ("0", "1")))
    e_bot = lattices[EMPTY]
    maps = {(EMPTY, EMPTY): Homomorphism.identity(e_bot)}
    poset = FinitePoset(ip.jc, [(EMPTY, n) for n in ip.jc])
    for c in ip.chains:
        node = node_of(c)
        lat = lattices[node]
        maps[(node, node)] = Homomorphism.identity(lat)
        maps[(EMPTY, node)] = Homomorphism._trusted(e_bot, lat, [0, lat.n - 1])
    return LatticeDiagram._trusted(poset, lattices, maps)


# --- chain diagrams ---

def _check_spanning_chain(L, c: Chain):
    idxs = [L.index(x) for x in c]
    if idxs[0] != L.bottom_i or idxs[-1] != L.top_i:
        raise NotSpanning(f"chain {c} does not run from 0 to 1")
    for a, b in zip(idxs, idxs[1:]):
        if a == b or not L.leq_i(a, b):
            raise NotSpanning(f"{c} is not a chain of {L!r}")


def chain_diagram(L, chains) -> LatticeDiagram:
    """The chain diagram of L over a set of spanning chains: bounds, chains,
    sublattices generated by pairs of chains, then L itself, all inclusions.
    A pair node is a chain or is generated by two elements a, b, so it is
    {0, a ^ b, a, b, a v b, 1} and distributive; that is not checked.

    Pair nodes whose chains generate the same element set hold one
    sublattice object, and the edges between the same two lattice objects
    one inclusion, so the diagram's memo and verify_lifting meet each of
    them once."""
    ip = IndexPoset(chains)
    for c in ip.chains:
        _check_spanning_chain(L, c)
    lattices = _jc_lattices(ip.chains, L.bottom, L.top)
    lattices[TOP] = L
    closures = {}
    for nd in ip.ic:
        if nd.is_top or nd in lattices:
            continue
        members = tuple(_closed_indices(L, {x for c in nd.chains for x in c}))
        if members not in closures:
            closures[members] = _sublattice_from_indices(L, members)[0]
        lattices[nd] = closures[members]
    maps, inclusions = {}, {}
    for (p, q) in ip.pairs():
        src, tgt = lattices[p], lattices[q]
        if (src, tgt) not in inclusions:
            inclusions[(src, tgt)] = Homomorphism._trusted(
                src, tgt, [tgt.index(x) for x in src.labels])
        maps[(p, q)] = inclusions[(src, tgt)]
    return LatticeDiagram._trusted(ip, lattices, maps)


def spanning_chains_of_subset(L, subset):
    """Spanning chains of length 2 or 3 with all elements inside `subset`;
    UnknownElement names a label that is not in L.  A lazy product is
    refused: listing its chains is a search over all of its elements."""
    _require_dense(L, "chain diagrams need")
    members = sorted({L.index(x) for x in subset})
    if L.bottom_i not in members or L.top_i not in members:
        raise NotSpanning("subset must contain both bounds")
    return spanning_chains(L, (2, 3), members=members)


def chain_diagram_of_partial(L, subset) -> tuple:
    """Chain diagram of the spanning subset K inside L: the chain set is all
    spanning chains of K of length 2 or 3.  Returns (diagram, chains)."""
    chains = spanning_chains_of_subset(L, subset)
    return chain_diagram(L, chains), chains


# --- products of diagrams over a lower subset ---

def product_over(j_nodes, diagrams: Sequence[LatticeDiagram]) -> LatticeDiagram:
    """Product of several diagrams over a common lower subset J.

    Nodes in J stay untouched (all factors must agree there); nodes outside J
    become direct products (lazy above PRODUCT_CAP elements), with
    transition maps acting componentwise.  product_projections() of a node
    outside J gives its projections onto the factors.  The result is lawful
    without a check: componentwise maps of bounded homomorphisms are bounded
    homomorphisms, and each triangle commutes factor by factor.
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
        return first

    lattices = {}
    sizes = {}
    for n in poset.elements:
        if n in jset:
            lattices[n] = first.lattices[n]
        else:
            lattices[n] = product(*[d.lattices[n] for d in diagrams])
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
            maps[(p, q)] = Homomorphism._trusted(src, tgt, mp)

    return LatticeDiagram._trusted(poset, lattices, maps)


# --- diagram extension ---

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
    """B over IC(C) extended to IC(C + [new]).  Each node n reads B at
    carried(n): {new} at the bottom node, a fresh pair {C, new} at {C}, any
    other node at itself.  {new} holds its chain; an edge out of it first
    collapses the chain onto the bounds b < t (everything below its top to
    b), and the edge into it sends b, t to its bottom and top.  carried is
    monotone, so B read along it keeps B's laws."""
    ip = IndexPoset(list(B.poset.chains) + [new])
    e_bot = B.lattices[EMPTY]
    if (new[0], new[-1]) != tuple(e_bot.labels):
        raise BadChainShapes("new chain must share the diagram's extremities")
    new_single = node_of(new)
    new_lat = _chain_lattice(new)
    collapse = Homomorphism._trusted(new_lat, e_bot, [0] * (new_lat.n - 1) + [1])
    entry = Homomorphism._trusted(e_bot, new_lat, [0, new_lat.n - 1])

    def carried(n):
        if n == new_single:
            return EMPTY
        if n.is_top or new not in n.chains:
            return n
        return node_of(*(c for c in n.chains if c != new))

    lattices = {n: B.lattices[carried(n)] for n in ip.elements}
    lattices[new_single] = new_lat
    maps = {}
    for (p, q) in ip.pairs():
        f = B.maps[(carried(p), carried(q))]
        if p == q == new_single:
            f = Homomorphism.identity(new_lat)
        elif p == new_single:
            f = f.compose(collapse)
        elif q == new_single:
            f = entry.compose(f)
        maps[(p, q)] = f
    return LatticeDiagram._trusted(ip, lattices, maps)


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


# the labels of builtin("M:3") and builtin("N5"), and the covers of each
_GENERATOR_LABELS = ("0", "x1", "x2", "x3", "1")
_GENERATOR_COVERS = {((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
                     ((0, 1), (0, 3), (1, 2), (2, 4), (3, 4))}


def _check_generator(kgen):
    if kgen.labels != _GENERATOR_LABELS or tuple(kgen.covers) not in _GENERATOR_COVERS:
        raise BadChainShapes("the directing generator must be the builtin M:3 or N5 lattice")


def directing_diagram(kgen, c1, c2, c3, with_t=False):
    """The directing construction over three chains.

    c1 and c2 must have length 2; c3 has length 2 or contains both.  One
    copy of the pattern diagram is built per isotone surjection of c3 onto a
    three-element chain, and the copies are glued by their product over JC.
    Each copy is the base diagram on JC, so the product restricts to it there.
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
    ip = IndexPoset([c1, c2, c3])
    lattices = _jc_lattices(ip.chains, *_bounds_of(ip.chains, ("0", "1")))
    lattices[TOP] = kgen
    role = {c1: "x1", c2: "x2", c3: "x3"}
    # the labels of kgen each node other than the bottom goes to: c1 and c2
    # by their role, c3 through t (set per factor), a pair node and the top
    # by their own labels
    image = {node_of(c): ["0", role[c], "1"] for c in (c1, c2)}
    image[TOP] = kgen.labels
    for nd in ip.ic:
        if nd.is_top or nd in lattices:
            continue
        ca, cb = nd.chains
        gens = sorted({kgen.index(v) for v in ("0", role[ca], role[cb], "1")})
        lattices[nd], _ = _sublattice_from_indices(kgen, gens)
        image[nd] = lattices[nd].labels
    surjections = _isotone_surjections(len(c3), 3)

    factors = []
    for t in surjections:
        image[node_of(c3)] = [("0", "x3", "1")[k] for k in t]
        maps = {}
        for (p, q) in ip.pairs():
            src, tgt = lattices[p], lattices[q]
            if p == q:
                maps[(p, q)] = Homomorphism.identity(src)
            elif p == EMPTY:
                maps[(p, q)] = Homomorphism._trusted(src, tgt, [tgt.bottom_i, tgt.top_i])
            else:
                maps[(p, q)] = Homomorphism._trusted(src, tgt, [tgt.index(v) for v in image[p]])
        factors.append(LatticeDiagram._trusted(ip, lattices, maps))

    glued = product_over(ip.jc, factors)
    return (glued, surjections) if with_t else glued


# --- the glued diagram of a partial sublattice ---

@dataclass
class GluedDiagram:
    diagram: LatticeDiagram
    chains: tuple
    # the admissible (c1, c2, d) role triples, one directing factor each
    triples = property(lambda self: tuple(admissible_triples(self.chains)))
    factor_count = property(lambda self: 1 + len(self.triples))   # and the chain diagram


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


def glued_diagram(L, subset, kgen) -> GluedDiagram:
    """Chain diagram of the subset glued with one directing diagram per
    admissible triple; the product is taken over JC.

    By construction, not checked: nodes below the top are finite and
    distributive (products of chains and of sublattices generated by two
    elements), and the restriction to JC is the chain diagram's, which
    product_over keeps.  Products beyond PRODUCT_CAP elements switch to the
    lazy componentwise representation.
    """
    subset = list(subset)
    if len(set(subset)) < 5:
        raise TooFewElements("the spanning subset needs at least five elements")
    chains = spanning_chains_of_subset(L, subset)
    base = chain_diagram(L, chains)
    ip = base.poset
    factors = [base]
    for (c1, c2, d) in admissible_triples(chains):
        dd = directing_diagram(kgen, c1, c2, d)
        factors.append(extend_diagram(dd, chains))
    glued = product_over(ip.jc, factors)
    return GluedDiagram(glued, tuple(chains))


# --- Conc applied to a diagram ---

def apply_conc(D: LatticeDiagram) -> SemilatticeDiagram:
    """Nodewise J(Con), edgewise induced maps: one J per lattice object and
    one ConcMap per edge object, each computed once per shape or content
    (the diagram's memo).  Conc is a functor and D is lawful, so the result
    obeys the functor laws; they are not checked."""
    memo = D.memo
    J = {n: memo.J(D.lattices[n]) for n in D.poset.elements}
    maps = {(p, q): memo.conc(D.maps[(p, q)], J[p], J[q]) for (p, q) in D.poset.pairs()}
    return SemilatticeDiagram(J, maps, of_diagram=D)


# --- serialization ---

def diagram_to_json(D: LatticeDiagram) -> dict:
    ids = {n: str(n) for n in D.poset.elements}
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
    """The diagram written by diagram_to_json; FormatError for any other
    shape (the poset's "nodes" must be an array of strings and its "leq" an
    array of [p, q] string pairs), or unless the nodes are distinct, the
    order pairs, closed under reflexivity, form a partial order on them,
    "lattices" is keyed by the nodes, and "maps" by "p<=q" for order pairs
    p < q, each map keyed by the elements of p's lattice."""
    try:
        nodes, leq = obj["poset"]["nodes"], obj["poset"]["leq"]
        # a string or an object would iterate as its characters or keys
        if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
            raise FormatError('bad diagram: "nodes" is not an array of strings')
        if not isinstance(leq, list) or not all(
                isinstance(pair, list) and all(isinstance(x, str) for x in pair) for pair in leq):
            raise FormatError('bad diagram: "leq" is not an array of string pairs')
        # a pair of another length fails to unpack
        le = [(a, b) for a, b in leq]
        if len(set(nodes)) != len(nodes):
            raise FormatError("the poset lists a node twice")
        if not {x for pair in le for x in pair} <= set(nodes):
            raise FormatError("an order pair names a node the poset does not list")
        poset = FinitePoset(nodes, le)
        ups = [set(up) for up in poset._up_sets()]
        for a, up in enumerate(ups):
            for b in up - {a}:
                if a in ups[b] or not ups[b] <= up:
                    c = a if a in ups[b] else min(ups[b] - up)
                    raise FormatError("the order is not a partial order: "
                                      f"{nodes[a]} <= {nodes[b]} <= {nodes[c]}")
        if set(obj["lattices"]) != set(nodes):
            raise FormatError("the lattices are not keyed by exactly the poset's nodes")
        lattices = {n: lattice_from_json(obj["lattices"][n]) for n in nodes}
        maps = {(n, n): Homomorphism.identity(lattices[n]) for n in nodes}
        edges = {f"{p}<={q}": (p, q) for (p, q) in poset.pairs() if p != q}
        for key, mp in obj["maps"].items():
            if key not in edges:
                raise FormatError(f"the map key {key!r} names no order pair p < q")
            a, b = edges[key]
            src, tgt = lattices[a], lattices[b]
            if set(mp) != set(src.labels):
                raise FormatError(f"the map {key!r} does not map exactly the elements of {a}")
            # the constructor below checks the laws of these maps
            maps[(a, b)] = Homomorphism._trusted(src, tgt, [tgt.index(mp[x]) for x in src.labels])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"bad diagram: {exc!r}") from None
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
        lines.append(f'    label={_dot_string(n)};')
        if L.n > DOT_NODE_LIMIT:
            lines.append(f'    n{k}_0 [label="{L.n} elements", shape=box];')
        else:
            for i, lab in enumerate(L.labels):
                lines.append(f'    n{k}_{i} [label={_dot_string(lab)}, shape=plaintext];')
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
