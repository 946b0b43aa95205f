"""Congruences of finite lattices and the Con construction.

A congruence is stored as a partition in canonical form: blocks sorted by
least element, each block a sorted tuple of element indices.  Con(L) is
generated from the principal congruences of cover pairs and closed under
join; for a finite lattice this yields every congruence.
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
    meet_t, join_t = L._meet, L._join
    while qi < len(queue):
        x, y = queue[qi]
        qi += 1
        for table in (meet_t, join_t):
            rx, ry = rep[table[x]], rep[table[y]]
            for z in np.nonzero(rx != ry)[0]:
                union(int(table[x][z]), int(table[y][z]))
    return rep


def _canon_blocks(rep):
    by_class = {}
    for i, r in enumerate(rep.tolist()):
        by_class.setdefault(r, []).append(i)
    blocks = sorted((tuple(sorted(b)) for b in by_class.values()),
                    key=lambda b: b[0])
    return tuple(blocks)


class Congruence:
    """A partition of a lattice compatible with meet and join."""

    __slots__ = ("host", "blocks", "block_of")

    def __init__(self, host, blocks, _trusted=False):
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
        if not _trusted and not self.is_valid():
            raise NotACongruence("partition is not compatible with meet and join")

    @classmethod
    def from_rep(cls, host, rep):
        return cls(host, _canon_blocks(rep), _trusted=True)

    @classmethod
    def from_label_blocks(cls, host, blocks):
        return cls(host, [[host.index(x) for x in b] for b in blocks])

    @classmethod
    def zero(cls, host):
        return cls(host, [[i] for i in range(host.n)], _trusted=True)

    @classmethod
    def one(cls, host):
        return cls(host, [list(range(host.n))], _trusted=True)

    def is_valid(self) -> bool:
        _require_dense(self.host)
        bo = np.array(self.block_of)
        for table in (self.host._meet, self.host._join):
            for b in self.blocks:
                if len(b) == 1:
                    continue
                img = bo[table[list(b)]]
                if not (img == img[0]).all():
                    return False
        return True

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


def principal_congruence(L, a, b) -> Congruence:
    """Theta(a, b): the smallest congruence identifying a and b."""
    _require_dense(L)
    return Congruence.from_rep(L, _closure_rep(L, [(L.index(a), L.index(b))]))


def _check_same_host(t1, t2):
    if t1.host is not t2.host and not _same_lattice(t1.host, t2.host):
        raise HostMismatch("congruences live on different lattices")


def congruence_join(t1: Congruence, t2: Congruence) -> Congruence:
    """Join: transitive closure of the union, re-closed under compatibility."""
    _check_same_host(t1, t2)
    seeds = []
    for theta in (t1, t2):
        for blk in theta.blocks:
            seeds.extend((blk[0], i) for i in blk[1:])
    return Congruence.from_rep(t1.host, _closure_rep(t1.host, seeds))


def congruence_meet(t1: Congruence, t2: Congruence) -> Congruence:
    """Meet: common refinement (always a congruence)."""
    _check_same_host(t1, t2)
    pairs = {}
    rep = [0] * t1.host.n
    for i in range(t1.host.n):
        key = (t1.block_of[i], t2.block_of[i])
        rep[i] = pairs.setdefault(key, i)
    return Congruence.from_rep(t1.host, np.array(rep))


def kernel(f: Homomorphism) -> Congruence:
    """ker f: the partition of the source by fibers of f."""
    fibers = {}
    rep = [0] * f.source.n
    for i in range(f.source.n):
        rep[i] = fibers.setdefault(int(f.mapping[i]), i)
    return Congruence.from_rep(f.source, np.array(rep))


class ConLattice:
    """The lattice of all congruences of a finite lattice, by refinement."""

    __slots__ = ("host", "cons", "_by_key", "leq", "meet_t", "join_t",
                 "bottom_i", "top_i", "atoms", "_lattice")

    def __init__(self, host, cons):
        self.host = host
        cons = sorted(cons, key=lambda t: (host.n - len(t.blocks), t.block_of))
        self.cons = tuple(cons)
        self._by_key = {t.block_of: k for k, t in enumerate(cons)}
        m = len(cons)
        bo = np.array([t.block_of for t in cons])
        leq = np.zeros((m, m), dtype=bool)
        for i, ti in enumerate(cons):
            flat = np.array([i_ for b in ti.blocks for i_ in b])
            first = np.array([b[0] for b in ti.blocks for _ in b])
            leq[i] = (bo[:, flat] == bo[:, first]).all(axis=1)
        leq.flags.writeable = False
        self.leq = leq
        # joins from the refinement order (the set holds every congruence, so
        # the least common coarsening is the unique minimal upper bound);
        # meets are common refinements located by their partition key
        up_id = {leq[k].tobytes(): k for k in range(m)}
        meet_t = np.zeros((m, m), dtype=np.int32)
        join_t = np.zeros((m, m), dtype=np.int32)
        for i in range(m):
            for j in range(i, m):
                k = up_id.get((leq[i] & leq[j]).tobytes())
                if k is None:
                    raise NotACongruence("congruence set is not join-closed")
                join_t[i, j] = join_t[j, i] = k
                k = self._by_key.get(congruence_meet(cons[i], cons[j]).block_of)
                if k is None:
                    raise NotACongruence("congruence set is not meet-closed")
                meet_t[i, j] = meet_t[j, i] = k
        self.meet_t = meet_t
        self.join_t = join_t
        self.bottom_i = self.index_of(Congruence.zero(host))
        self.top_i = self.index_of(Congruence.one(host))
        self.atoms = tuple(
            j for j in range(m)
            if j != self.bottom_i and leq[self.bottom_i, j]
            and sum(1 for k in range(m) if leq[k, j] and k != j) == 1)
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
            self._lattice = FiniteLattice._from_order(labels, self.leq, name=name)
        return self._lattice

    def __repr__(self):
        return f"<ConLattice of {self.host!r}, {self.n} congruences>"


def con_lattice(L, max_size=CON_SIZE_BUDGET) -> ConLattice:
    """All congruences of L: cover principals closed under join, plus zero."""
    _require_dense(L)
    if L.n > max_size:
        raise BudgetExceeded(f"|L| = {L.n} exceeds the Con budget {max_size}")
    found = {}
    zero = Congruence.zero(L)
    found[zero.block_of] = zero
    gens = {}
    for i, j in L.covers:
        t = Congruence.from_rep(L, _closure_rep(L, [(i, j)]))
        found.setdefault(t.block_of, t)
        gens.setdefault(t.block_of, found[t.block_of])
    gens = list(gens.values())
    queue = list(gens)
    while queue:
        t = queue.pop()
        for g in gens:
            j = congruence_join(t, g)
            if j.block_of not in found:
                found[j.block_of] = j
                queue.append(j)
    return ConLattice(L, found.values())


def is_simple(L) -> bool:
    """Whether Con L = {0, 1}: every cover pair generates the full congruence."""
    _require_dense(L)
    if L.n < 2:
        return False
    for i, j in L.covers:
        rep = _closure_rep(L, [(i, j)])
        if len(set(rep.tolist())) != 1:
            return False
    return True


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
        self.join_preserving = bool(
            (self.target.join_t[m[:, None], m[None, :]]
             == m[source.join_t]).all())
        self.zero_preserving = int(m[source.bottom_i]) == target.bottom_i
        bij = len(set(m.tolist())) == source.n == target.n
        self.isomorphism = bij and self.join_preserving and self.zero_preserving
        self.separates_zero = self.zero_preserving and all(
            int(m[k]) != target.bottom_i
            for k in range(source.n) if k != source.bottom_i)

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

    Each congruence of the source goes to the target congruence generated by
    the image pairs of its blocks.
    """
    CS = con_source or con_lattice(f.source)
    CT = con_target or con_lattice(f.target)
    if f.source is f.target and (f.mapping == np.arange(f.source.n)).all() \
            and CS is CT:
        return ConcMap.identity(CS)
    mapping = np.zeros(CS.n, dtype=np.int32)
    for k, theta in enumerate(CS.cons):
        seeds = []
        for blk in theta.blocks:
            fa = int(f.mapping[blk[0]])
            seeds.extend((fa, int(f.mapping[i])) for i in blk[1:])
        img = Congruence.from_rep(f.target, _closure_rep(f.target, seeds))
        mapping[k] = CT.index_of(img)
    return ConcMap(CS, CT, mapping)


def dual_identification(con_src: ConLattice, con_dst: ConLattice) -> ConcMap:
    """Canonical identification Con(L) = Con(dual L): same partitions."""
    mapping = np.zeros(con_src.n, dtype=np.int32)
    for k, theta in enumerate(con_src.cons):
        mapping[k] = con_dst._by_key[theta.block_of]
    return ConcMap(con_src, con_dst, mapping)


def is_boolean(con: ConLattice):
    """Distributive and complemented test with a witness on failure.

    Returns (flag, atoms, witness); atoms are Congruence objects.  The witness
    is a failing distributivity triple or a non-complemented member.
    """
    m = con.n
    me, jo = con.meet_t, con.join_t
    for x in range(m):
        lhs = me[x][jo]
        rhs = jo[me[x][:, None], me[x][None, :]]
        if not (lhs == rhs).all():
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return False, None, ("not distributive", con.cons[x], con.cons[y], con.cons[z])
    for x in range(m):
        has_c = any(me[x, y] == con.bottom_i and jo[x, y] == con.top_i
                    for y in range(m))
        if not has_c:
            return False, None, ("not complemented", con.cons[x])
    return True, [con.cons[a] for a in con.atoms], None


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
