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
    is when cons[b] identifies pairs[a].  A congruence is held as the bool
    mask of the members below it, its down-set in J.
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

    def mask_of(self, classes):
        """Down-set mask of the congruence with these class ids (a block_of
        or a closure's rep): the members whose pair it identifies."""
        return np.array([classes[a] == classes[b] for a, b in self.pairs], dtype=bool)

    def join_ids(self, mask):
        """block_of of the join of the members marked in mask."""
        ids = tuple(range(self.host.n))
        for a in np.nonzero(mask)[0]:
            ids = _join_ids(ids, self.cons[a].block_of)
        return ids

    def minimal(self):
        """Indices of the minimal members: the atoms of Con L."""
        return np.nonzero(self.leq.sum(axis=0) == 1)[0]

    def boolean_atoms(self):
        """The atoms of Con L, the members of J, when Con L is Boolean, else
        None.  Con L is distributive: it is Boolean iff J is an antichain."""
        return self.cons if self.leq.sum() == len(self) else None

    def meet_irreducibles(self):
        """(m(j), m(j) v j) for each member j, in canonical order of m(j).

        m(j), the join of the members not above j, is the largest congruence
        not above j.  These are the meet-irreducibles of Con L, and m(j) v j
        is the unique upper cover of m(j).
        """
        out = []
        for a, theta_j in enumerate(self.cons):
            low = self.join_ids(~self.leq[a])
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

    __slots__ = ("host", "J", "masks", "cons", "_by_key",
                 "bottom_i", "top_i", "atoms", "_lattice")

    def __init__(self, J: JoinIrreducibles, masks, cons):
        self.host = J.host
        self.J = J
        self.masks = masks
        self.masks.flags.writeable = False
        self.cons = tuple(cons)
        self._by_key = {t.block_of: k for k, t in enumerate(self.cons)}
        self.bottom_i = int(np.nonzero(~masks.any(axis=1))[0][0])
        self.top_i = int(np.nonzero(masks.all(axis=1))[0][0])
        self.atoms = tuple(int(k) for k in np.nonzero(masks.sum(axis=1) == 1)[0])
        self._lattice = None

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


def _check_con_size(L, max_size=CON_SIZE_BUDGET):
    _require_dense(L)
    if L.n > max_size:
        raise BudgetExceeded(f"|L| = {L.n} exceeds the Con budget {max_size}")


def con_lattice(L, max_size=CON_SIZE_BUDGET) -> ConLattice:
    """All congruences of L: the joins of the down-sets of J(Con L).

    Down-sets are enumerated breadth first from the empty one, each new one
    adding a member of J whose lower members it holds; its partition is
    the union-find join of its parent's with that member's.  Refuses L above
    max_size elements and Con L above CON_COUNT_BUDGET members.
    """
    _check_con_size(L, max_size)
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


class ConcMap:
    """A join-preserving map phi: Con S -> Con T held on J(Con S), J(Con T).

    zero is the down-set mask over J(Con T) of phi(0) and images[j] that of
    phi(down j) for each member j of J(Con S); phi(x) is their join over x.
    join_preserving is False only for a map that from_mapping read from a
    mapping that does not preserve joins; such a map is no isomorphism.
    """

    __slots__ = ("source", "target", "zero", "images", "join_preserving")

    def __init__(self, source: JoinIrreducibles, target: JoinIrreducibles, zero, images):
        self.source = source
        self.target = target
        self.zero = zero
        self.images = images
        self.join_preserving = True

    @classmethod
    def identity(cls, J: JoinIrreducibles):
        # row j of J.leq.T is the down-set of the member j
        return cls(J, J, np.zeros(len(J), dtype=bool), J.leq.T)

    @classmethod
    def from_mapping(cls, con_s: ConLattice, con_t: ConLattice, mapping):
        """The map sending con_s.cons[k] to con_t.cons[mapping[k]], read off
        its values on 0 and on each down j."""
        m = np.asarray(mapping, dtype=np.intp)
        if m.shape != (con_s.n,) or not ((m >= 0) & (m < con_t.n)).all():
            raise CritlatError("mapping does not fit the Con lattices")
        down = np.array([con_s.index_of(t) for t in con_s.J.cons], dtype=np.intp)
        cm = cls(con_s.J, con_t.J, con_t.masks[m[con_s.bottom_i]],
                 con_t.masks[m[down]])
        cm.join_preserving = bool((cm.on_masks(con_s.masks) == con_t.masks[m]).all())
        return cm

    def mapping_on(self, con_s: ConLattice, con_t: ConLattice):
        """The index in con_t of phi(c) for each congruence c of con_s."""
        index = {row.tobytes(): k for k, row in enumerate(con_t.masks)}
        return np.array([index[row.tobytes()] for row in self.on_masks(con_s.masks)],
                        dtype=np.int32)

    def on_masks(self, masks):
        """phi of down-set masks over J(Con source), one per row."""
        return self.zero | (masks @ self.images)

    def apply(self, theta: Congruence) -> Congruence:
        image = self.on_masks(self.source.mask_of(theta.block_of))
        return Congruence.from_rep(self.target.host, self.target.join_ids(image))

    @property
    def isomorphism(self) -> bool:
        """phi(0) = 0 and phi(down j) = down pi(j) for an order isomorphism
        pi: J(Con S) -> J(Con T)."""
        if not self.join_preserving or self.zero.any() \
                or len(self.source) != len(self.target):
            return False
        downs = {row.tobytes(): b for b, row in enumerate(self.target.leq.T)}
        pi = np.array([downs.get(row.tobytes(), -1) for row in self.images], dtype=np.intp)
        return (len(set(pi.tolist()) - {-1}) == len(pi)
                and bool((self.target.leq[np.ix_(pi, pi)] == self.source.leq).all()))

    @property
    def separates_zero(self) -> bool:
        """Only 0 goes to 0: phi(0) = 0 and no phi(down j) is 0."""
        return not self.zero.any() and bool(self.images.any(axis=1).all())

    def compose(self, first: "ConcMap") -> "ConcMap":
        """self after first."""
        cm = ConcMap(first.source, self.target, self.on_masks(first.zero),
                     self.on_masks(first.images))
        cm.join_preserving = self.join_preserving and first.join_preserving
        return cm

    def equal_map(self, other: "ConcMap") -> bool:
        return (np.array_equal(self.zero, other.zero)
                and np.array_equal(self.images, other.images))

    def __repr__(self):
        return f"<ConcMap {self.source.host!r} -> {self.target.host!r}>"


def conc_of_hom(f: Homomorphism, j_source: Optional[JoinIrreducibles] = None,
                j_target: Optional[JoinIrreducibles] = None) -> ConcMap:
    """The congruence map induced by a lattice homomorphism: one closure
    Theta(f a, f b) per generating pair (a, b) of J(Con source), read as a
    mask over J(Con target)."""
    JS = JoinIrreducibles(f.source) if j_source is None else j_source
    JT = JoinIrreducibles(f.target) if j_target is None else j_target
    if f.source is f.target and JS is JT \
            and (f.mapping == np.arange(f.source.n)).all():
        return ConcMap.identity(JS)
    fm = f.mapping.tolist()
    images = np.zeros((len(JS), len(JT)), dtype=bool)
    for j, (a, b) in enumerate(JS.pairs):
        if fm[a] != fm[b]:
            images[j] = JT.mask_of(_closure_rep(f.target, [(fm[a], fm[b])]))
    return ConcMap(JS, JT, np.zeros(len(JT), dtype=bool), images)


def is_boolean(con: ConLattice):
    """Boolean test with a witness on failure, the flag read off J(Con L).

    Returns (flag, atoms, witness); atoms are Congruence objects.  The
    witness is ("not complemented", theta) for the first theta in canonical
    order without a complement: a down-set of J whose complement is not a
    down-set.
    """
    atoms = con.J.boolean_atoms()
    if atoms is not None:
        return True, list(atoms), None
    # the complement of a down-set is a down-set iff nothing above it is outside it
    above = con.masks @ con.J.leq
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


def boolean_atoms_of(B, J: Optional[JoinIrreducibles] = None):
    """The atoms of Con B, read off J(Con B), which is built within the Con
    size budget when not given.  ConNotBoolean unless Con B is Boolean."""
    if J is None:
        _check_con_size(B)
        J = JoinIrreducibles(B)
    atoms = J.boolean_atoms()
    if atoms is None:
        raise ConNotBoolean(f"Con of {B!r} is not Boolean")
    return atoms


def is_congruence_chain(B, chain_labels, J: Optional[JoinIrreducibles] = None):
    """Bijection sigma from chain steps onto the atoms of Con B, or None.

    Requires Con B to be a finite Boolean lattice (ConNotBoolean otherwise).
    sigma is returned as the list of step congruences, sigma(k) = Theta(x_k, x_{k+1}).
    """
    atoms = boolean_atoms_of(B, J)
    steps = chain_steps(B, chain_labels)
    keys = [t.block_of for t in steps]
    if len(set(keys)) != len(keys) or set(keys) != {t.block_of for t in atoms}:
        return None
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
    return all(xi.apply(t) == principal_congruence(C, c_elems[k], c_elems[k + 1])
               for k, t in enumerate(chain_steps(B, chain_labels)))


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
