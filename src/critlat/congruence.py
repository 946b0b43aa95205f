"""Congruences of finite lattices and the Con construction.

A congruence is stored as a partition in canonical form: blocks sorted by
least element, each block a sorted tuple of element indices.

Con L is built from J(Con L), its join-irreducible members: the
congruences Theta(j_*, j) of the join-irreducible elements j of L, j_* the
lower cover of j, ordered by the dependency relation D of L with no closure
(README, "How Con is computed").  Con L is distributive, so a congruence is
held as the mask of its down-set in J(Con L), and every partition is read
off such a mask (JoinIrreducibles.congruences).
"""

from __future__ import annotations

import itertools
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
from .lattice import (FiniteLattice, Homomorphism, _dependency, _dependency_ends, _require_dense,
                      _same_lattice, _same_or_dual, chain_order)

# cells read: J(Con L) builds |J(L)| x |L| tables, con_lattice one
# partition of |L| entries per congruence
J_CELL_BUDGET = 300 * 300
CON_CELL_BUDGET = 300 * 2048


def _reach(D):
    """D*, the reflexive transitive closure of the bool matrix D, by
    Warshall's algorithm on int bit rows."""
    m = len(D)
    rows = [int.from_bytes(row.tobytes(), "little") | 1 << a
            for a, row in enumerate(np.packbits(D, axis=1, bitorder="little"))]
    for k in range(m):
        bit, rk = 1 << k, rows[k]
        if rk != bit:
            rows = [r | rk if r & bit else r for r in rows]
    width = (m + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(m, width), axis=1, count=m, bitorder="little").view(bool)


class Congruence:
    """A partition of a lattice compatible with meet and join.  The
    constructor (its blocks of int element indices of the host, bools
    refused) and from_label_blocks check that it is one; from_rep trusts it,
    so quotient() never checks again."""

    __slots__ = ("host", "blocks", "block_of")

    def __init__(self, host, blocks):
        self.host = host
        blocks = [tuple(b) for b in blocks]
        for i in itertools.chain(*blocks):
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < host.n:
                raise NotACongruence(f"{i!r} is not the index of an element of {host!r}")
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        if not all(self.blocks):
            raise NotACongruence("a block is empty")
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
        be a congruence: for partitions the library computed (kernels
        and partitions read off masks over J(Con))."""
        # class ids renumbered by first occurrence: the canonical block_of
        seen = {}
        ids = tuple(seen.setdefault(c, len(seen))
                    for c in (rep.tolist() if isinstance(rep, np.ndarray) else rep))
        blocks = [[] for _ in range(max(ids, default=-1) + 1)]
        for i, k in enumerate(ids):
            blocks[k].append(i)
        theta = cls.__new__(cls)
        theta.host, theta.block_of = host, ids
        theta.blocks = tuple(map(tuple, blocks))
        return theta

    def rehost(self, L) -> "Congruence":
        """This partition on L, a lattice with the host's size and covers."""
        theta = Congruence.__new__(Congruence)
        theta.host, theta.blocks, theta.block_of = L, self.blocks, self.block_of
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
        _require_dense(self.host, "congruence computations need")
        bo = np.array(self.block_of)
        # each element's row must agree, modulo self, with its block's least element's
        least = np.array([self.blocks[k][0] for k in self.block_of])
        return all((bo[table] == bo[table[least]]).all()
                   for table in (self.host._meet, self.host._join))

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
    J = JoinIrreducibles(L)
    return J.congruences(J.principal_masks(L.index(a), L.index(b)))[0]


def kernel(f: Homomorphism) -> Congruence:
    """ker f: the partition of the source by fibers of f."""
    return Congruence.from_rep(f.source, f.mapping)


class JoinIrreducibles:
    """J(Con L): the distinct congruences Theta(j_*, j), in canonical order.

    pairs[a] generates cons[a]; leq[a, b] when cons[a] refines cons[b], that
    is when cons[b] identifies pairs[a].  A congruence is held as the bool
    mask of the members below it, its down-set in J.

    Theta(j_*, j) <= Theta(k_*, k) iff j D* k, so the members are the
    classes of D*, ordered by it.  For a < b, Theta(a, b) is the join of the
    Theta(j_*, j) over the j <= b with j not <= a (principal_masks).
    """

    __slots__ = ("host", "cons", "pairs", "leq", "_below", "_gen", "_covers", "_cover_of",
                 "_zero", "_downs")

    def __init__(self, L):
        _require_dense(L, "congruence computations need")
        ji, lower, D = _dependency(L, J_CELL_BUDGET)
        star = _reach(D)
        # j and k share a class of D*, a member, iff their rows of D* are
        # equal; first lists each member's first j
        firsts = {}
        first_of = [firsts.setdefault(row.tobytes(), a) for a, row in enumerate(star)]
        first = np.array(list(firsts.values()), dtype=np.intp)
        member = np.searchsorted(first, first_of)
        self.host = L
        self._below = L._leq[ji]
        # the member of each cover u < v: Theta(j_*, j) for a minimal j <= v
        # with j not <= u, one of least height
        self._covers = np.array(L.covers, dtype=np.intp).reshape(-1, 2).T
        u, v = self._covers
        height = np.where(self._below[:, v] & ~self._below[:, u],
                          L.heights[ji][:, None], L.n)
        self._cover_of = member[height.argmin(axis=0)] if len(ji) else member
        # read the members off their down-sets, then put them in canonical order
        cons = self.congruences(star[first][:, first].T)
        order = sorted(range(len(first)), key=lambda a: _canonical_key(L.n, cons[a].block_of))
        first = first[order]
        self.cons = tuple(cons[a] for a in order)
        self.pairs = tuple(zip(lower[first].tolist(), ji[first].tolist()))
        # _below[j, x]: the join-irreducible j <= x; _gen[j]: the down-set
        # of Theta(j_*, j), the member its pair generates
        self._gen = star[first].T
        self.leq = self._gen[first].T
        self._cover_of = np.argsort(order)[self._cover_of]
        # the identity ConcMap's masks: 0 and, row j, the down-set of member j
        self._zero, self._downs = np.zeros(len(first), dtype=bool), self.leq.T
        # read-only: ConcMemo shares them between lattices of one shape
        for table in (self.leq, self._gen, self._below, self._covers, self._cover_of,
                      self._zero, self._downs):
            table.flags.writeable = False

    def rehost(self, L) -> "JoinIrreducibles":
        """This J(Con) on L, a lattice with the host's size and covers: the
        same read-only arrays and pairs, the members rebuilt on L."""
        J = JoinIrreducibles.__new__(JoinIrreducibles)
        for name in ("pairs", "leq", "_below", "_gen", "_covers", "_cover_of", "_zero", "_downs"):
            setattr(J, name, getattr(self, name))
        J.host = L
        J.cons = tuple(t.rehost(L) for t in self.cons)
        return J

    def __len__(self):
        return len(self.leq)

    def principal_masks(self, a, b):
        """Down-set masks of Theta(a, b), one row per pair of element indices
        of the host (or of its dual: both have the same congruences, and
        duality swaps a ^ b and a v b)."""
        lo, hi = self.host._meet[a, b], self.host._join[a, b]
        # a member of Con L is join-prime, so OR over the rows is the join
        return (self._below[:, hi] & ~self._below[:, lo]).T @ self._gen

    def mask_of(self, classes):
        """Down-set mask of the congruence with these class ids (a block_of
        or any class ids): the members whose pair it identifies."""
        return np.array([classes[a] == classes[b] for a, b in self.pairs], dtype=bool)

    def congruences(self, masks):
        """The congruence of each bool down-set mask (rows, or one mask): a
        cover is collapsed iff its member is marked, and classes are
        intervals, so following collapsed lower covers down from x, by
        pointer jumping, ends at the least element of x's class."""
        masks = np.atleast_2d(masks)
        n = self.host.n
        # one pointer per element of each mask's copy of L, mask h at h * n
        hit, edges = np.nonzero(masks[:, self._cover_of])
        u, v = self._covers[:, edges] + hit * n
        least = np.arange(len(masks) * n)
        least[v] = u
        # after t jumps each pointer has walked 2^t covers or to its end
        for _ in range(self.host.height().bit_length()):
            least = least[least]
        return [Congruence.from_rep(self.host, row)
                for row in least.reshape(len(masks), n).tolist()]

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
        # row a of ~leq: the members not above a; adding a's down-set joins it
        low = ~self.leq
        cons = self.congruences(np.concatenate([low, low | self.leq.T]))
        return sorted(zip(cons[:len(self)], cons[len(self):]),
                      key=lambda pair: _canonical_key(self.host.n, pair[0].block_of))


class ConLattice:
    """The lattice of all congruences of a finite lattice, by refinement.

    cons[k] is the join of the members of J marked in the bool row masks[k];
    the rows are the down-sets of J, so subset, AND and OR on them give the
    order, meets and joins.  cons is in the canonical order: fewer merged
    elements first, then block_of.
    """

    __slots__ = ("J", "masks", "cons")

    def __init__(self, J: JoinIrreducibles, masks, cons):
        self.J = J
        self.masks = masks
        self.masks.flags.writeable = False
        self.cons = tuple(cons)

    @property
    def n(self):
        return len(self.cons)

    def __repr__(self):
        return f"<ConLattice of {self.J.host!r}, {self.n} congruences>"


def con_lattice(L) -> ConLattice:
    """All congruences of L: the joins of the down-sets of J(Con L).

    Down-sets are enumerated breadth first from the empty one, each new one
    adding a member of J whose lower members it holds; all their partitions
    are then read off at once (JoinIrreducibles.congruences).  Refuses when
    |Con L| * |L| is above CON_CELL_BUDGET, counted as it enumerates.
    """
    J = JoinIrreducibles(L)
    k = len(J)
    below = [sum(1 << b for b in np.nonzero(J.leq[:, a])[0].tolist() if b != a)
             for a in range(k)]
    found = {0}
    queue = [0]
    for down in queue:
        for a in range(k):
            grown = down | 1 << a
            if grown == down or below[a] & ~down or grown in found:
                continue
            found.add(grown)
            if len(found) * L.n > CON_CELL_BUDGET:
                raise BudgetExceeded(
                    f"|Con L| * |L| exceeds the Con budget {CON_CELL_BUDGET} for "
                    f"{L!r}: {len(found)} congruences enumerated from |J(Con L)| = {k}")
            queue.append(grown)
    masks = np.array([[down >> a & 1 for a in range(k)] for down in queue],
                     dtype=bool).reshape(len(queue), k)
    cons = J.congruences(masks)
    order = sorted(range(len(cons)), key=lambda c: _canonical_key(L.n, cons[c].block_of))
    return ConLattice(J, masks[order], [cons[c] for c in order])


def is_simple(L) -> bool:
    """Whether Con L = {0, 1} with 0 != 1: L has two or more elements and
    D* (_dependency) has one class, J(Con L) one member.  Stops early when
    some j has no D edge in or out: its class is {j}; that is read off the
    arrow relations (_dependency_ends), before D is formed."""
    _require_dense(L, "congruence computations need")
    out, into = _dependency_ends(L)
    if L.n < 2 or len(out) > 1 and not (out & into).all():
        return False
    return bool(_reach(_dependency(L)[2]).all())


def _same_masks(a, b) -> bool:
    # bool arrays of one shape are equal iff their bytes are
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class ConcMap:
    """A join-preserving map phi: Con S -> Con T held on J(Con S), J(Con T).

    zero is the down-set mask over J(Con T) of phi(0) and images[j] that of
    phi(down j) for each member j of J(Con S); phi(x) is their join over x.
    join_preserving is False only for a map that lifting_from_json read from
    a bundle whose pairs do not preserve joins; such a map is no isomorphism.
    """

    __slots__ = ("source", "target", "zero", "images", "join_preserving")

    def __init__(self, source: JoinIrreducibles, target: JoinIrreducibles, zero, images):
        self.source = source
        self.target = target
        # bool and read-only: equal_map compares bytes, and ConcMemo shares
        # them between maps
        self.zero = np.asarray(zero, dtype=bool)
        self.images = np.asarray(images, dtype=bool)
        self.zero.flags.writeable = self.images.flags.writeable = False
        self.join_preserving = True

    @classmethod
    def identity(cls, J: JoinIrreducibles):
        """The identity of Con L, over J's masks: the identities of every J
        of one shape share their arrays."""
        return cls(J, J, J._zero, J._downs)

    def on_masks(self, masks):
        """phi of down-set masks over J(Con source), one per row."""
        return self.zero | (masks @ self.images)

    def sends_principal(self, a, b, C, c, d):
        """For each k, whether phi(Theta(a_k, b_k)) = Theta_C(c_k, d_k), as a
        bool array, with no partition built.  a, b index the elements of the
        source's host (or of its dual), c, d those of C; all False unless
        the target's host is C."""
        if not _same_lattice(self.target.host, C):
            return np.zeros(len(a), dtype=bool)
        got = self.on_masks(self.source.principal_masks(a, b))
        return (got == self.target.principal_masks(c, d)).all(axis=-1)

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

    def compose(self, first: "ConcMap") -> "ConcMap":
        """self after first."""
        cm = ConcMap(first.source, self.target, self.on_masks(first.zero),
                     self.on_masks(first.images))
        cm.join_preserving = self.join_preserving and first.join_preserving
        return cm

    def equal_map(self, other: "ConcMap") -> bool:
        return (_same_masks(self.zero, other.zero)
                and _same_masks(self.images, other.images))

    def commutes(self, first: "ConcMap", other: "ConcMap", other_first: "ConcMap") -> bool:
        """Whether self . first = other . other_first, compared on 0 and on
        each down j with no composite built."""
        return (_same_masks(self.on_masks(first.zero), other.on_masks(other_first.zero))
                and _same_masks(self.on_masks(first.images), other.on_masks(other_first.images)))

    def __repr__(self):
        return f"<ConcMap {self.source.host!r} -> {self.target.host!r}>"


def conc_of_hom(f: Homomorphism, j_source: Optional[JoinIrreducibles] = None,
                j_target: Optional[JoinIrreducibles] = None) -> ConcMap:
    """The congruence map induced by a lattice homomorphism: Theta(f a, f b)
    for each generating pair (a, b) of J(Con source), read off J(Con target)
    as a mask.  The given J must be those of f's source and target or of
    their duals (HostMismatch otherwise)."""
    JS = JoinIrreducibles(f.source) if j_source is None else j_source
    JT = JoinIrreducibles(f.target) if j_target is None else j_target
    _check_j_hosts(f, JS, JT)
    if f.source is f.target and JS is JT \
            and (f.mapping == np.arange(f.source.n)).all():
        return ConcMap.identity(JS)
    pairs = np.array(JS.pairs, dtype=np.intp).reshape(len(JS), 2)
    images = JT.principal_masks(f.mapping[pairs[:, 0]], f.mapping[pairs[:, 1]])
    return ConcMap(JS, JT, np.zeros(len(JT), dtype=bool), images)


def _check_j_hosts(f: Homomorphism, JS: JoinIrreducibles, JT: JoinIrreducibles):
    if not (_same_or_dual(JS.host, f.source) and _same_or_dual(JT.host, f.target)):
        raise HostMismatch("J(Con) given for another lattice than the map's")


def _shape(L: FiniteLattice):
    """Size and covers: they fix every table of a dense lattice but its labels."""
    return L.n, tuple(L.covers)


class ConcMemo:
    """J(Con), Conc, and the checks and searches over them, for one diagram.
    A LatticeDiagram holds one for its lifetime: apply_conc, verify_lifting
    (the Conc of the source edges, the xi verdicts and the naturality
    squares), the chain searches of extraction and the directing check, and
    the source J(Con) of a read lifting bundle share it.

    Each lattice object gets one J, and each (map, J source, J target) one
    ConcMap.  The keys are the objects themselves, so the memo holds them
    and no id is reused while it lives; a diagram's objects cannot change.
    An object met for the first time falls back to content.  J(Con L) reads
    only L's tables, which its size and covers fix: it is built once per
    such shape and re-hosted on every other dense lattice of that shape
    (JoinIrreducibles.rehost, the same read-only arrays).  Conc f reads only
    the arrays of its two J and f's mapping: it is computed once per (source
    J's arrays, target J's arrays, mapping), and each other map gets its own
    ConcMap over the shared read-only arrays.

    once() keeps any other answer for the memo's lifetime.  Its key is a
    tag, plain values and the identities of the read-only objects (the
    arrays of J(Con) and of ConcMaps) that the computation reads, and the
    memo holds those objects: no identity is reused while it lives, so a
    kept answer is the one the computation would give again.  A ConcMap put
    in place of another, or a flag changed on one, reads under another key.
    """

    def __init__(self):
        self._J, self._conc = {}, {}            # by content
        self._J_of, self._conc_of, self._once = {}, {}, {}  # by object

    def once(self, tag, objects, compute, *values):
        """compute(), run once per key while the memo lives (see above)."""
        key = (tag, *values, *map(id, objects))
        if key not in self._once:
            self._once[key] = compute(), objects
        return self._once[key][0]

    def J(self, L) -> JoinIrreducibles:
        """J(Con L), one per lattice object and built once per shape; a lazy
        product is refused."""
        _require_dense(L, "congruence computations need")
        J = self._J_of.get(L)
        if J is None:
            key = _shape(L)
            J = self._J.get(key)
            if J is None:
                J = self._J[key] = JoinIrreducibles(L)
            elif J.host is not L:
                J = J.rehost(L)
            self._J_of[L] = J
        return J

    def conc(self, f: Homomorphism, j_source: JoinIrreducibles,
             j_target: JoinIrreducibles) -> ConcMap:
        """conc_of_hom(f, j_source, j_target), the same ConcMap each time
        for the same three objects."""
        cm = self._conc_of.get((f, j_source, j_target))
        if cm is None:
            # a J and its re-hosted copies share leq; the entry holds the
            # first J, and so its leq
            key = (id(j_source.leq), id(j_target.leq), f.mapping.tobytes())
            cm = self._conc.get(key)
            if cm is None:
                cm = self._conc[key] = conc_of_hom(f, j_source, j_target)
            else:
                _check_j_hosts(f, j_source, j_target)
                cm = ConcMap(j_source, j_target, cm.zero, cm.images)
            self._conc_of[(f, j_source, j_target)] = cm
        return cm


def is_boolean(con: ConLattice) -> bool:
    """Whether Con L is Boolean, read off J(Con L): iff J is an antichain."""
    return con.J.boolean_atoms() is not None


def _chain_indices(L, chain_labels):
    """Element indices of a chain in L; CritlatError unless it ascends."""
    idxs = [L.index(x) for x in chain_labels]
    for a, b in zip(idxs, idxs[1:]):
        if a == b or not L.leq_i(a, b):
            raise CritlatError(f"not an ascending chain: {chain_labels}")
    return idxs


def atom_steps(J: JoinIrreducibles):
    """theta(a, z): the member of J that Theta(a, z) is when it is an atom of
    Con, that is when its down-set holds that member alone, else -1.  The
    row of a is read off J once, for every z."""
    n, rows = J.host.n, {}

    def theta(a, z):
        if a not in rows:
            masks = J.principal_masks(np.full(n, a), np.arange(n))
            rows[a] = np.where(masks.sum(axis=1) == 1, masks.argmax(axis=1), -1).tolist()
        return rows[a][z]

    return theta


def boolean_J(B, J: Optional[JoinIrreducibles] = None) -> JoinIrreducibles:
    """J(Con B), built when not given, whose members are then the atoms of
    Con B.  ConNotBoolean unless Con B is Boolean."""
    if J is None:
        J = JoinIrreducibles(B)
    if J.boolean_atoms() is None:
        raise ConNotBoolean(f"Con of {B!r} is not Boolean")
    return J


def is_congruence_chain(B, chain_labels, J: Optional[JoinIrreducibles] = None):
    """Bijection sigma from chain steps onto the atoms of Con B, or None.

    Requires Con B to be a finite Boolean lattice (ConNotBoolean otherwise).
    sigma is returned as the list of step congruences, sigma(k) = Theta(x_k, x_{k+1}).
    """
    J = boolean_J(B, J)
    idxs = _chain_indices(B, chain_labels)
    theta = atom_steps(J)
    steps = [theta(a, b) for a, b in zip(idxs, idxs[1:])]
    if -1 in steps or sorted(steps) != list(range(len(J))):
        return None
    return [Congruence.from_rep(B, J.cons[k].block_of) for k in steps]


def is_direct_congruence_chain(B, chain_labels, xi: ConcMap, C) -> bool:
    """Directness of a congruence chain for (xi, C).

    xi must be an isomorphism Con B -> Con C and C a chain lattice whose
    length matches the candidate chain; then the chain is direct iff
    xi(Theta_B(x_k, x_{k+1})) = Theta_C(c_k, c_{k+1}) for every k.
    """
    if not xi.isomorphism:
        raise CritlatError("xi must be an isomorphism")
    c_elems = [C.index(c) for c in chain_order(C)]
    if len(chain_labels) != C.n:
        raise ArityMismatch(
            f"chain has {len(chain_labels) - 1} steps, target chain has {C.n - 1}")
    return _sends_chain(xi, _chain_indices(B, chain_labels), C, c_elems)


def _sends_chain(xi: ConcMap, path, C, c_elems) -> bool:
    """Directness of the chain of element indices path for (xi, C), c_elems
    being the elements of the chain lattice C from bottom to top: the two
    have the same length and xi(Theta(x_k, x_{k+1})) = Theta_C(c_k, c_{k+1})
    for every k."""
    return len(path) == len(c_elems) and bool(xi.sends_principal(
        path[:-1], path[1:], C, c_elems[:-1], c_elems[1:]).all())


def inclusion_hom(sub, amb) -> Homomorphism:
    """The label-inclusion homomorphism of a sublattice; NotASublattice on failure."""
    try:
        mapping = [amb.index(x) for x in sub.labels]
    except Exception:
        raise NotASublattice("sublattice labels missing from the ambient lattice")
    try:
        return Homomorphism(sub, amb, np.array(mapping, dtype=np.int32))
    except CritlatError:
        raise NotASublattice(
            "inclusion does not preserve meet and join") from None


def is_congruence_preserving_extension(sub, amb) -> bool:
    """Whether amb extends sub congruence-preservingly: Conc of the inclusion
    is an isomorphism Con(sub) -> Con(amb)."""
    incl = inclusion_hom(sub, amb)
    return conc_of_hom(incl).isomorphism
