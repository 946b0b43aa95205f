"""Congruences of finite lattices and the Con construction.

A congruence is stored as a partition in canonical form: blocks sorted by
least element, each block a sorted tuple of element indices.

Con L is built from J(Con L), its join-irreducible members.  These are the
principal congruences Theta(j_*, j) of the join-irreducible elements j of L,
j_* being the unique lower cover of j: a cover u < v is perspective to
(j_*, j) for a minimal j <= v with j not <= u, so it generates the same
congruence.  Con L is distributive, so its members are the joins of the
down-sets of J(Con L), and a congruence is held as the mask of its down-set.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    ConNotBoolean,
    CritlatError,
    HostMismatch,
    NotACongruence,
    NotASublattice,
)
from .lattice import FiniteLattice, Homomorphism, _same_lattice, chain_order

CON_SIZE_BUDGET = 300
# bound on |Con L|: con_lattice makes one union-find join and one partition
# of |L| entries per member; 2048 is |Con L| for L = bool:11
CON_COUNT_BUDGET = 2048


def _require_dense(L):
    if not isinstance(L, FiniteLattice):
        raise BudgetExceeded(
            f"congruence computations need a dense lattice, got {L!r}")


def _closure_rep(L, seed_pairs):
    """Least congruence containing the seed pairs, as a class-id array.

    Work queue over merged pairs; every merge re-checks compatibility against
    all one-sided meets and joins.  Merging relabels the smaller class, so the
    total cost stays near n^2 per closure.
    """
    n = L.n
    rep = np.arange(n)
    members = {i: [i] for i in range(n)}
    queue = []

    def union(a, b):
        ra, rb = int(rep[a]), int(rep[b])
        if ra == rb:
            return
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        for m in members[rb]:
            rep[m] = ra
        members[ra].extend(members.pop(rb))
        queue.append((a, b))

    for a, b in seed_pairs:
        union(a, b)
    qi = 0
    while qi < len(queue):
        x, y = queue[qi]
        qi += 1
        for table in (L._meet, L._join):
            rx, ry = rep[table[x]], rep[table[y]]
            for z in np.nonzero(rx != ry)[0]:
                union(int(table[x][z]), int(table[y][z]))
    return rep


def _canon_ids(classes):
    """Class ids renumbered by first occurrence: the canonical block_of."""
    ids = {}
    return tuple(ids.setdefault(c, len(ids)) for c in classes)


def _join_ids(a, b):
    """block_of of the join of two partitions given by their block_of.

    Union-find over the classes of a, merged along the classes of b.  The
    transitive closure of a union of congruences is a congruence, so for
    congruences this is their join in Con L.
    """
    parent = list(range(len(a)))
    first = {}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in zip(a, b):
        rx, ry = find(x), find(first.setdefault(y, x))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return _canon_ids([find(x) for x in a])


class Congruence:
    """A partition of a lattice compatible with meet and join."""

    __slots__ = ("host", "blocks", "block_of")

    def __init__(self, host, blocks):
        self.host = host
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        self.blocks = tuple(sorted(self.blocks, key=lambda b: b[0]))
        bo = [None] * host.n
        for k, b in enumerate(self.blocks):
            for i in b:
                bo[i] = k
        if any(v is None for v in bo):
            raise NotACongruence("blocks do not cover the universe")
        if sum(len(b) for b in self.blocks) != host.n:
            raise NotACongruence("blocks overlap")
        self.block_of = tuple(bo)
        if not self.is_valid():
            raise NotACongruence("partition is not compatible with meet and join")

    @classmethod
    def from_rep(cls, host, rep):
        """The partition into the classes of rep (any class ids), trusted to
        be a congruence."""
        ids = _canon_ids(rep.tolist() if isinstance(rep, np.ndarray) else rep)
        blocks = [[] for _ in range(max(ids, default=-1) + 1)]
        for i, k in enumerate(ids):
            blocks[k].append(i)
        theta = cls.__new__(cls)
        theta.host, theta.block_of = host, ids
        theta.blocks = tuple(map(tuple, blocks))
        return theta

    @classmethod
    def from_label_blocks(cls, host, blocks):
        return cls(host, [[host.index(x) for x in b] for b in blocks])

    @classmethod
    def zero(cls, host):
        return cls.from_rep(host, range(host.n))

    @classmethod
    def one(cls, host):
        return cls.from_rep(host, [0] * host.n)

    def is_valid(self) -> bool:
        _require_dense(self.host)
        bo = np.array(self.block_of)
        # each element's row must agree, modulo self, with its block's least element's
        least = np.array([self.blocks[k][0] for k in self.block_of])
        return all((bo[table] == bo[table[least]]).all()
                   for table in (self.host._meet, self.host._join))

    @property
    def is_one(self):
        return len(self.blocks) == 1

    def same(self, i, j) -> bool:
        return self.block_of[i] == self.block_of[j]

    def leq(self, other: "Congruence") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        obo = other.block_of
        return all(all(obo[i] == obo[b[0]] for i in b) for b in self.blocks)

    def join(self, other: "Congruence") -> "Congruence":
        return congruence_join(self, other)

    def meet(self, other: "Congruence") -> "Congruence":
        return congruence_meet(self, other)

    def label_blocks(self):
        return [[self.host.labels[i] for i in b] for b in self.blocks]

    def __eq__(self, other):
        return (isinstance(other, Congruence)
                and self.block_of == other.block_of
                and _same_lattice(self.host, other.host))

    def __hash__(self):
        return hash(self.block_of)

    def __repr__(self):
        inner = " | ".join(",".join(self.host.labels[i] for i in b)
                           for b in self.blocks)
        return f"<Con {inner}>"


def _canonical_key(n, block_of):
    """Sort key of the canonical Con order: fewer merges first, then block_of."""
    return (n - (max(block_of, default=-1) + 1), block_of)


def principal_congruence(L, a, b) -> Congruence:
    """Theta(a, b): the smallest congruence identifying a and b."""
    _require_dense(L)
    return Congruence.from_rep(L, _closure_rep(L, [(L.index(a), L.index(b))]))


def _check_same_host(t1, t2):
    if t1.host is not t2.host and not _same_lattice(t1.host, t2.host):
        raise HostMismatch("congruences live on different lattices")


def congruence_join(t1: Congruence, t2: Congruence) -> Congruence:
    """Join: the transitive closure of the union."""
    _check_same_host(t1, t2)
    return Congruence.from_rep(t1.host, _join_ids(t1.block_of, t2.block_of))


def congruence_meet(t1: Congruence, t2: Congruence) -> Congruence:
    """Meet: common refinement (always a congruence)."""
    _check_same_host(t1, t2)
    return Congruence.from_rep(t1.host, list(zip(t1.block_of, t2.block_of)))


def kernel(f: Homomorphism) -> Congruence:
    """ker f: the partition of the source by fibers of f."""
    return Congruence.from_rep(f.source, f.mapping)


def _join_irreducible_pairs(L):
    """(j_*, j) for each join-irreducible element j of L, in index order of j."""
    lower = {}
    for i, j in L.covers:
        lower.setdefault(j, []).append(i)
    return [(lo[0], j) for j, lo in sorted(lower.items()) if len(lo) == 1]


class JoinIrreducibles:
    """J(Con L): the distinct congruences Theta(j_*, j), in canonical order.

    pairs[a] generates cons[a]; leq[a, b] when cons[a] refines cons[b], that
    is when cons[b] identifies pairs[a].
    """

    __slots__ = ("host", "cons", "pairs", "leq")

    def __init__(self, L):
        """One principal closure per join-irreducible element of L."""
        _require_dense(L)
        found = {}
        for pair in _join_irreducible_pairs(L):
            theta = Congruence.from_rep(L, _closure_rep(L, [pair]))
            found.setdefault(theta.block_of, (theta, pair))
        ordered = sorted(found.values(),
                         key=lambda tp: _canonical_key(L.n, tp[0].block_of))
        self.host = L
        self.cons = tuple(t for t, _ in ordered)
        self.pairs = tuple(p for _, p in ordered)
        k = len(self.cons)
        self.leq = np.array([[t.block_of[a] == t.block_of[b] for t in self.cons]
                             for a, b in self.pairs], dtype=bool).reshape(k, k)

    def __len__(self):
        return len(self.cons)

    def minimal(self):
        """Indices of the minimal members: the atoms of Con L."""
        return np.nonzero(self.leq.sum(axis=0) == 1)[0]

    def meet_irreducibles(self):
        """(m(j), m(j) v j) for each member j, in canonical order of m(j).

        m(j), the join of the members not above j, is the largest congruence
        not above j.  These are the meet-irreducibles of Con L, and m(j) v j
        is the unique upper cover of m(j).
        """
        out = []
        for a, theta_j in enumerate(self.cons):
            low = tuple(range(self.host.n))
            for b in np.nonzero(~self.leq[a])[0]:
                low = _join_ids(low, self.cons[b].block_of)
            out.append((low, _join_ids(low, theta_j.block_of)))
        out.sort(key=lambda pair: _canonical_key(self.host.n, pair[0]))
        return [(Congruence.from_rep(self.host, low),
                 Congruence.from_rep(self.host, star)) for low, star in out]


class ConLattice:
    """The lattice of all congruences of a finite lattice, by refinement.

    cons[k] is the join of the members of J marked in the bool row masks[k];
    the rows are the down-sets of J, so subset, AND and OR on them give the
    order, meets and joins.  cons is in the canonical order: fewer merged
    elements first, then block_of.
    """

    __slots__ = ("host", "J", "masks", "cons", "_by_key", "_by_mask",
                 "bottom_i", "top_i", "atoms", "_lattice")

    def __init__(self, J: JoinIrreducibles, masks, cons):
        self.host = J.host
        self.J = J
        self.masks = masks
        self.masks.flags.writeable = False
        self.cons = tuple(cons)
        self._by_key = {t.block_of: k for k, t in enumerate(self.cons)}
        self._by_mask = {row.tobytes(): k for k, row in enumerate(masks)}
        self.bottom_i = int(np.nonzero(~masks.any(axis=1))[0][0])
        self.top_i = int(np.nonzero(masks.all(axis=1))[0][0])
        self.atoms = tuple(int(k) for k in np.nonzero(masks.sum(axis=1) == 1)[0])
        self._lattice = None

    def index_of_masks(self, masks):
        """Indices of the congruences whose down-sets are the given bool rows."""
        return np.array([self._by_mask[row.tobytes()] for row in masks],
                        dtype=np.int32)

    @property
    def n(self):
        return len(self.cons)

    def index_of(self, theta: Congruence) -> int:
        try:
            return self._by_key[theta.block_of]
        except KeyError:
            raise NotACongruence(
                f"{theta!r} is not a congruence of {self.host!r}") from None

    def as_lattice(self) -> FiniteLattice:
        """The Con lattice as a plain FiniteLattice, labels c0..c{m-1}."""
        if self._lattice is None:
            labels = [f"c{k}" for k in range(self.n)]
            name = f"Con({self.host.name})" if self.host.name else "Con"
            # masks[a] is a subset of masks[b] iff no member of J is in a but not in b
            leq = ~(self.masks @ ~self.masks.T)
            self._lattice = FiniteLattice._from_order(labels, leq, name=name)
        return self._lattice

    def __repr__(self):
        return f"<ConLattice of {self.host!r}, {self.n} congruences>"


def con_lattice(L, max_size=CON_SIZE_BUDGET) -> ConLattice:
    """All congruences of L: the joins of the down-sets of J(Con L).

    Down-sets are enumerated breadth first from the empty one, each new one
    adding a member of J whose lower members it holds; its partition is
    the union-find join of its parent's with that member's.  Refuses L above
    max_size elements and Con L above CON_COUNT_BUDGET members.
    """
    _require_dense(L)
    if L.n > max_size:
        raise BudgetExceeded(f"|L| = {L.n} exceeds the Con budget {max_size}")
    J = JoinIrreducibles(L)
    k = len(J)
    below = [sum(1 << b for b in np.nonzero(J.leq[:, a])[0].tolist() if b != a)
             for a in range(k)]
    found = {0: tuple(range(L.n))}
    queue = [0]
    for down in queue:
        for a in range(k):
            grown = down | 1 << a
            if grown == down or below[a] & ~down or grown in found:
                continue
            found[grown] = _join_ids(found[down], J.cons[a].block_of)
            if len(found) > CON_COUNT_BUDGET:
                raise BudgetExceeded(
                    f"Con of {L!r} has more than {CON_COUNT_BUDGET} congruences: "
                    f"{len(found)} enumerated from |J(Con L)| = {k}")
            queue.append(grown)
    ordered = sorted(found.items(), key=lambda kv: _canonical_key(L.n, kv[1]))
    masks = np.array([[down >> a & 1 for a in range(k)] for down, _ in ordered],
                     dtype=bool).reshape(len(ordered), k)
    return ConLattice(J, masks, [Congruence.from_rep(L, ids) for _, ids in ordered])


def is_simple(L) -> bool:
    """Whether Con L = {0, 1}: L has two or more elements and every
    join-irreducible j generates the full congruence with its lower cover."""
    _require_dense(L)
    if L.n < 2:
        return False
    for pair in _join_irreducible_pairs(L):
        rep = _closure_rep(L, [pair])
        if not (rep == rep[0]).all():
            return False
    return True


def _join_extension(source: ConLattice, zero_mask, image_masks):
    """Masks of phi(x) = phi(0) v V{phi(down j) : j in x} for each x in source.

    zero_mask is the mask of phi(0) and image_masks[j] that of phi(down j),
    down j being the down-set of the member j of J(Con source).  A map between
    down-set lattices preserves binary joins iff it equals this extension of
    its values on 0 and on the down j.
    """
    return zero_mask | (source.masks @ image_masks)


class ConcMap:
    """A join- and zero-preserving map between congruence lattices."""

    __slots__ = ("source", "target", "mapping", "join_preserving",
                 "zero_preserving", "isomorphism", "separates_zero")

    def __init__(self, source: ConLattice, target: ConLattice, mapping):
        self.source = source
        self.target = target
        self.mapping = np.asarray(mapping, dtype=np.int32)
        if len(self.mapping) != source.n:
            raise CritlatError("ConcMap length mismatch")
        m = self.mapping
        image = target.masks[m]
        # row j of J.leq.T is the down-set of the member j of J
        down = source.index_of_masks(source.J.leq.T)
        want = _join_extension(source, image[source.bottom_i], image[down])
        self.join_preserving = bool((image == want).all())
        self.zero_preserving = int(m[source.bottom_i]) == target.bottom_i
        bij = len(set(m.tolist())) == source.n == target.n
        self.isomorphism = bij and self.join_preserving and self.zero_preserving
        self.separates_zero = self.zero_preserving and bool(
            np.count_nonzero(m == target.bottom_i) == 1)

    @classmethod
    def identity(cls, con: ConLattice):
        return cls(con, con, np.arange(con.n, dtype=np.int32))

    def apply(self, theta: Congruence) -> Congruence:
        return self.target.cons[int(self.mapping[self.source.index_of(theta)])]

    def apply_i(self, k: int) -> int:
        return int(self.mapping[k])

    def inverse(self) -> "ConcMap":
        if not self.isomorphism:
            raise CritlatError("only isomorphisms invert")
        inv = np.zeros(self.target.n, dtype=np.int32)
        for k in range(self.source.n):
            inv[self.mapping[k]] = k
        return ConcMap(self.target, self.source, inv)

    def compose(self, first: "ConcMap") -> "ConcMap":
        """self after first."""
        return ConcMap(first.source, self.target, self.mapping[first.mapping])

    def equal_map(self, other: "ConcMap") -> bool:
        return bool((self.mapping == other.mapping).all())

    def __repr__(self):
        return f"<ConcMap {self.source.host!r} -> {self.target.host!r}>"


def conc_of_hom(f: Homomorphism, con_source: Optional[ConLattice] = None,
                con_target: Optional[ConLattice] = None) -> ConcMap:
    """The congruence map induced by a lattice homomorphism.

    Conc f preserves joins, so it is fixed by the images Theta(f a, f b) of
    the generating pairs (a, b) of J(Con source): each congruence goes to the
    join of the images of its down-set.
    """
    CS = con_source or con_lattice(f.source)
    CT = con_target or con_lattice(f.target)
    if f.source is f.target and (f.mapping == np.arange(f.source.n)).all() \
            and CS is CT:
        return ConcMap.identity(CS)
    fm = f.mapping.tolist()
    images = [CT.index_of(Congruence.from_rep(
                  f.target, _closure_rep(f.target, [(fm[a], fm[b])])))
              for a, b in CS.J.pairs]
    image_masks = CT.masks[np.array(images, dtype=np.intp)]
    return ConcMap(CS, CT, CT.index_of_masks(
        _join_extension(CS, CT.masks[CT.bottom_i], image_masks)))


def dual_identification(con_src: ConLattice, con_dst: ConLattice) -> ConcMap:
    """Canonical identification Con(L) = Con(dual L): same partitions."""
    mapping = np.zeros(con_src.n, dtype=np.int32)
    for k, theta in enumerate(con_src.cons):
        mapping[k] = con_dst._by_key[theta.block_of]
    return ConcMap(con_src, con_dst, mapping)


def is_boolean(con: ConLattice):
    """Boolean test with a witness on failure.

    Con L is distributive, so it is Boolean exactly when J(Con L) is an
    antichain.  Returns (flag, atoms, witness); atoms are Congruence objects.
    The witness is ("not complemented", theta) for the first theta in
    canonical order without a complement: a down-set of J whose complement
    is not a down-set.
    """
    jleq = con.J.leq
    if jleq.sum() == len(con.J):
        return True, [con.cons[a] for a in con.atoms], None
    # the complement of a down-set is a down-set iff nothing above it is outside it
    above = con.masks @ jleq
    first = int(np.argmax((above & ~con.masks).any(axis=1)))
    return False, None, ("not complemented", con.cons[first])


def chain_steps(L, chain_labels):
    """Principal congruences of the consecutive steps of a chain in L."""
    idxs = [L.index(x) for x in chain_labels]
    for a, b in zip(idxs, idxs[1:]):
        if a == b or not L.leq_i(a, b):
            raise CritlatError(f"not an ascending chain: {chain_labels}")
    return [principal_congruence(L, L.labels[a], L.labels[b])
            for a, b in zip(idxs, idxs[1:])]


def is_congruence_chain(B, chain_labels, con: Optional[ConLattice] = None):
    """Bijection sigma from chain steps onto the atoms of Con B, or None.

    Requires Con B to be a finite Boolean lattice (ConNotBoolean otherwise).
    sigma is returned as the list of step congruences, sigma(k) = Theta(x_k, x_{k+1}).
    """
    conB = con or con_lattice(B)
    ok, atoms, _ = is_boolean(conB)
    if not ok:
        raise ConNotBoolean(f"Con of {B!r} is not Boolean")
    steps = chain_steps(B, chain_labels)
    if len(steps) != len(atoms):
        return None
    atom_keys = {t.block_of for t in atoms}
    seen = set()
    for t in steps:
        if t.block_of not in atom_keys or t.block_of in seen:
            return None
        seen.add(t.block_of)
    return steps


def is_direct_congruence_chain(B, chain_labels, xi: ConcMap, C) -> bool:
    """Directness of a congruence chain for (xi, C).

    xi must be an isomorphism Con B -> Con C and C a chain lattice whose
    length matches the candidate chain; then the chain is direct iff
    xi(Theta_B(x_k, x_{k+1})) = Theta_C(c_k, c_{k+1}) for every k.
    """
    if not xi.isomorphism:
        raise CritlatError("xi must be an isomorphism")
    c_elems = chain_order(C)
    if len(chain_labels) != C.n:
        raise ArityMismatch(
            f"chain has {len(chain_labels) - 1} steps, target chain has {C.n - 1}")
    steps = chain_steps(B, chain_labels)
    for k, t in enumerate(steps):
        want = principal_congruence(C, c_elems[k], c_elems[k + 1])
        if xi.apply(t) != want:
            return False
    return True


def inclusion_hom(sub, amb) -> Homomorphism:
    """The label-inclusion homomorphism of a sublattice; NotASublattice on failure."""
    try:
        mapping = [amb.index(x) for x in sub.labels]
    except Exception:
        raise NotASublattice("sublattice labels missing from the ambient lattice")
    try:
        return Homomorphism(sub, amb, np.array(mapping, dtype=np.int32), check="full")
    except CritlatError:
        raise NotASublattice(
            "inclusion does not preserve meet and join") from None


def is_congruence_preserving_extension(sub, amb) -> bool:
    """Whether amb extends sub congruence-preservingly: Conc of the inclusion
    is an isomorphism Con(sub) -> Con(amb)."""
    incl = inclusion_hom(sub, amb)
    return conc_of_hom(incl).isomorphism
