"""Finite lattices, partial lattices, and lattice homomorphisms.

Lattices are immutable once built.  Elements are opaque string labels; the
canonical element order is the input order.  Order, meet and join tables are
derived eagerly at construction for ordinary ("dense") lattices, since every
downstream search hits meet/join in inner loops.  Large direct products built
internally by the diagram machinery use a lazy componentwise representation
(ProductLattice) with the same read interface.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Iterable, Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    CritlatError,
    CycleDetected,
    DuplicateLabel,
    FormatError,
    NotALattice,
    NotSpanning,
    SizeCapExceeded,
    UnknownElement,
)

DEFAULT_PRODUCT_CAP = 4096
_DENSE_LIMIT = 4096  # largest product stored with full tables
SUBUNIVERSE_SIZE_BOUND = 10
EMBED_NODE_BUDGET = 2_000_000
_HOM_CHUNK = 1 << 20  # table entries compared at once by the homomorphism check
_LAZY_LABEL_LIMIT = 500_000


def product_index(sizes, coords):
    """Index of the element with the given coordinates in a product whose
    factors have `sizes` elements: row-major, the last factor varying
    fastest.  Coordinates may be ints or equal-length index arrays."""
    return np.ravel_multi_index(tuple(coords), tuple(sizes))


def product_coords(sizes, index):
    """Inverse of product_index: one coordinate (or coordinate array) per
    factor."""
    return np.unravel_index(index, tuple(sizes))


def _product_labels(factors):
    # concatenate ("0","1" -> "01") only when every label of every factor is a
    # single character, so product(2,2) reads 00 < 01,10 < 11; tuple-style
    # otherwise, one convention per product
    concat = all(len(lab) == 1 for f in factors for lab in f.labels)
    return tuple("".join(combo) if concat else "(" + ",".join(combo) + ")"
                 for combo in itertools.product(*[f.labels for f in factors]))


class _Lattice:
    """The read interface shared by dense lattices and lazy products: label
    lookup, bounds, and label-level order and operations over the index-level
    leq_i / meet_i / join_i, covers and heights of each representation."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"{label!r} is not an element of {self!r}") from None

    def le(self, x, y) -> bool:
        return self.leq_i(self.index(x), self.index(y))

    def meet(self, x, y) -> str:
        return self.labels[self.meet_i(self.index(x), self.index(y))]

    def join(self, x, y) -> str:
        return self.labels[self.join_i(self.index(x), self.index(y))]

    @property
    def bottom(self) -> str:
        return self.labels[self.bottom_i]

    @property
    def top(self) -> str:
        return self.labels[self.top_i]

    def atoms_i(self):
        return sorted(j for i, j in self.covers if i == self.bottom_i)

    def height(self) -> int:
        return int(self.heights[self.top_i])

    def __repr__(self):
        nm = self.name or f"{self.n} elements"
        return f"<{self._kind} {nm}>"


class FiniteLattice(_Lattice):
    """A finite lattice given by cover relations, with dense derived tables."""

    __slots__ = (
        "name", "labels", "_index", "_leq", "_meet", "_join",
        "covers", "bottom_i", "top_i", "heights", "_signature", "factors",
    )
    _kind = "Lattice"

    def __init__(self, name, labels, leq, meet, join, covers, bottom_i, top_i, heights):
        self.name = name
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._leq = leq
        self._meet = meet
        self._join = join
        self.covers = covers
        self.bottom_i = bottom_i
        self.top_i = top_i
        self.heights = heights
        self._signature = None
        self.factors = None  # set when built as a direct product

    # --- construction ---

    @classmethod
    def _from_order(cls, labels, leq, name=None):
        """Build from a reflexive partial-order matrix, checking lattice totality."""
        n = len(labels)
        leq = np.asarray(leq, dtype=bool)
        leq.flags.writeable = False
        up_id = {leq[i].tobytes(): i for i in range(n)}
        down_id = {leq[:, i].tobytes(): i for i in range(n)}
        meet = np.zeros((n, n), dtype=np.int32)
        join = np.zeros((n, n), dtype=np.int32)
        for i in range(n):
            for j in range(i, n):
                above = (leq[i] & leq[j]).tobytes()
                k = up_id.get(above)
                if k is None:
                    raise NotALattice((labels[i], labels[j]), "join")
                join[i, j] = join[j, i] = k
                below = (leq[:, i] & leq[:, j]).tobytes()
                k = down_id.get(below)
                if k is None:
                    raise NotALattice((labels[i], labels[j]), "meet")
                meet[i, j] = meet[j, i] = k
        meet.flags.writeable = False
        join.flags.writeable = False
        lt = leq & ~np.eye(n, dtype=bool)
        cov = lt & ~(lt @ lt)
        covers = tuple(sorted((int(i), int(j)) for i, j in zip(*np.nonzero(cov))))
        bottom_i = int(np.nonzero(leq.sum(axis=1) == n)[0][0])
        top_i = int(np.nonzero(leq.sum(axis=0) == n)[0][0])
        heights = _heights_from_covers(n, covers, bottom_i)
        return cls(name, tuple(labels), leq, meet, join, covers, bottom_i, top_i, heights)

    # --- table reads ---

    def leq_i(self, i, j) -> bool:
        return bool(self._leq[i, j])

    def meet_i(self, i, j) -> int:
        return int(self._meet[i, j])

    def join_i(self, i, j) -> int:
        return int(self._join[i, j])

    def meet_row(self, i) -> np.ndarray:
        return self._meet[i]

    def join_row(self, i) -> np.ndarray:
        return self._join[i]

    def iso_signature(self):
        """Per-element invariant vector used to prune isomorphism search."""
        if self._signature is None:
            n = self.n
            up = [0] * n
            down = [0] * n
            for i, j in self.covers:
                up[i] += 1
                down[j] += 1
            dow = self._leq.sum(axis=1)
            ups = self._leq.sum(axis=0)
            self._signature = tuple(
                (int(self.heights[i]), up[i], down[i], int(dow[i]), int(ups[i]))
                for i in range(n)
            )
        return self._signature


def _heights_from_covers(n, covers, bottom_i):
    heights = np.zeros(n, dtype=np.int32)
    children = {}
    indeg = [0] * n
    for i, j in covers:
        children.setdefault(i, []).append(j)
        indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    order = []
    while queue:
        u = queue.pop()
        order.append(u)
        for v in children.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    for u in order:
        for v in children.get(u, ()):
            heights[v] = max(heights[v], heights[u] + 1)
    return heights


def validate_lattice(labels: Iterable[str], covers: Iterable[tuple], name=None) -> FiniteLattice:
    """Validate a cover presentation and return the lattice with derived tables.

    The input cover set may contain redundant (transitively implied) pairs;
    the canonical cover set stored on the result is the transitive reduction.
    Raises DuplicateLabel, UnknownElement, CycleDetected, or NotALattice.
    """
    labels = [str(x) for x in labels]
    if not labels:
        raise NotALattice((), "universe")
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(f"duplicate label {lab!r}")
        seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    adj = np.zeros((n, n), dtype=bool)
    for pair in covers:
        lo, hi = pair
        if lo not in index:
            raise UnknownElement(f"cover references unknown label {lo!r}")
        if hi not in index:
            raise UnknownElement(f"cover references unknown label {hi!r}")
        if lo == hi:
            raise CycleDetected(f"self-loop at {lo!r}")
        adj[index[lo], index[hi]] = True
    # transitive closure by repeated squaring; a cycle shows up on the diagonal
    leq = adj | np.eye(n, dtype=bool)
    while True:
        nxt = leq | (leq @ leq)
        if (nxt == leq).all():
            break
        leq = nxt
    strict = leq & ~np.eye(n, dtype=bool)
    if (strict & strict.T).any():
        i, j = map(int, next(zip(*np.nonzero(strict & strict.T))))
        raise CycleDetected(f"cycle through {labels[i]!r} and {labels[j]!r}")
    return FiniteLattice._from_order(labels, leq, name=name)


class ProductLattice(_Lattice):
    """Lazy direct product: componentwise order and operations, no dense tables.

    Used by the diagram machinery when the product size passes the dense cap.
    Element i has coordinates product_coords(sizes, i); covers and heights
    are computed from the factors on first use.
    """

    __slots__ = ("name", "factors", "sizes", "labels", "_index", "bottom_i", "top_i",
                 "_covers", "_heights")
    _kind = "ProductLattice"

    def __init__(self, factors, name=None):
        self.sizes = tuple(f.n for f in factors)
        total = math.prod(self.sizes)
        if total > _LAZY_LABEL_LIMIT:
            raise SizeCapExceeded(f"product of size {total} exceeds the lazy limit")
        self.name = name
        self.factors = tuple(factors)
        self.labels = _product_labels(factors)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self.bottom_i = int(product_index(self.sizes, [f.bottom_i for f in factors]))
        self.top_i = int(product_index(self.sizes, [f.top_i for f in factors]))
        self._covers = None
        self._heights = None

    def _pairs(self, i, j):
        """(factor, i_k, j_k) for each coordinate k of i and j."""
        return zip(self.factors, product_coords(self.sizes, i), product_coords(self.sizes, j))

    def leq_i(self, i, j):
        return all(f.leq_i(a, b) for f, a, b in self._pairs(i, j))

    def meet_i(self, i, j):
        return int(product_index(self.sizes, [f.meet_i(a, b) for f, a, b in self._pairs(i, j)]))

    def join_i(self, i, j):
        return int(product_index(self.sizes, [f.join_i(a, b) for f, a, b in self._pairs(i, j)]))

    @property
    def covers(self):
        """Sorted cover pairs: a cover raises one coordinate by a cover of
        its factor."""
        if self._covers is None:
            coords = product_coords(self.sizes, np.arange(self.n))
            lo, hi = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
            for k, f in enumerate(self.factors):
                for a, b in f.covers:
                    below = np.nonzero(coords[k] == a)[0]
                    up = [c[below] for c in coords]
                    up[k] = np.full(len(below), b)
                    lo.append(below)
                    hi.append(product_index(self.sizes, up))
            lo, hi = np.concatenate(lo), np.concatenate(hi)
            order = np.lexsort((hi, lo))
            self._covers = tuple(zip(lo[order].tolist(), hi[order].tolist()))
        return self._covers

    @property
    def heights(self):
        """Height of each element: the sum of its coordinates' heights."""
        if self._heights is None:
            coords = product_coords(self.sizes, np.arange(self.n))
            self._heights = sum(f.heights[c] for f, c in zip(self.factors, coords))
        return self._heights


def dual(L):
    """Same universe, reverse ordering; meet and join tables swap."""
    if isinstance(L, ProductLattice):
        return ProductLattice([dual(f) for f in L.factors],
                              name=f"dual({L.name})" if L.name else None)
    leq = np.ascontiguousarray(L._leq.T)
    leq.flags.writeable = False
    covers = tuple(sorted((j, i) for i, j in L.covers))
    heights = _heights_from_covers(L.n, covers, L.top_i)
    name = f"dual({L.name})" if L.name else None
    return FiniteLattice(name, L.labels, leq, L._join, L._meet,
                         covers, L.top_i, L.bottom_i, heights)


def _leq_table(L):
    # the order matrix of a lazy product is the Kronecker product of its
    # factors' matrices, since row-major order matches the encoding
    if isinstance(L, ProductLattice):
        return functools.reduce(np.kron, [_leq_table(f) for f in L.factors])
    return L._leq


def product(*lattices, cap: int = DEFAULT_PRODUCT_CAP, allow_lazy=False):
    """Direct product with componentwise operations.

    Sizes above `cap` raise SizeCapExceeded unless allow_lazy is set.  The
    result carries dense tables up to the fixed dense limit and switches to
    the lazy componentwise representation beyond it.  Use
    product_projections() to get the canonical projections as Homomorphisms.
    """
    if not lattices:
        raise CritlatError("product of zero lattices")
    if len(lattices) == 1:
        return lattices[0]
    total = math.prod(f.n for f in lattices)
    name = "x".join(f.name or "?" for f in lattices)
    if total > cap and not allow_lazy:
        raise SizeCapExceeded(f"product has {total} elements, cap is {cap}")
    if total > min(cap, _DENSE_LIMIT):
        return ProductLattice(lattices, name=name)
    leq = functools.reduce(np.kron, [_leq_table(f) for f in lattices])
    L = FiniteLattice._from_order(_product_labels(lattices), leq, name=name)
    L.factors = tuple(lattices)
    return L


def product_projections(P):
    """Canonical projections of a product onto its factors."""
    factors = getattr(P, "factors", None)
    if not factors:
        raise CritlatError("not a product lattice")
    coords = product_coords([f.n for f in factors], np.arange(P.n))
    return [Homomorphism(P, f, c, check="none") for f, c in zip(factors, coords)]


class Homomorphism:
    """A total map between lattices preserving meet and join."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping, check="full"):
        self.source = source
        self.target = target
        self.mapping = np.asarray(mapping, dtype=np.int32)
        self.mapping.flags.writeable = False
        if len(self.mapping) != source.n:
            raise CritlatError("mapping length does not match source size")
        if self.mapping.size and (self.mapping.min() < 0 or self.mapping.max() >= target.n):
            raise CritlatError("mapping hits indices outside the target")
        if check != "none":
            self.validate()

    @classmethod
    def from_labels(cls, source, target, label_map: dict, check="full"):
        mapping = [target.index(label_map[lab]) for lab in source.labels]
        return cls(source, target, mapping, check=check)

    @classmethod
    def identity(cls, L):
        return cls(L, L, np.arange(L.n, dtype=np.int32), check="none")

    def validate(self):
        """Raise CritlatError unless meet and join are preserved on every pair."""
        bad = _hom_failure(self.source, self.target, self.mapping)
        if bad is not None:
            op, a, b = bad
            raise CritlatError(f"not a homomorphism: {op} fails at "
                               f"({self.source.labels[a]}, {self.source.labels[b]})")

    def apply_i(self, i) -> int:
        return int(self.mapping[i])

    def apply(self, label) -> str:
        return self.target.labels[self.apply_i(self.source.index(label))]

    @property
    def injective(self) -> bool:
        return len(set(self.mapping.tolist())) == self.source.n

    @property
    def surjective(self) -> bool:
        return len(set(self.mapping.tolist())) == self.target.n

    @property
    def preserves_bounds(self) -> bool:
        return (self.apply_i(self.source.bottom_i) == self.target.bottom_i
                and self.apply_i(self.source.top_i) == self.target.top_i)

    def compose(self, first: "Homomorphism") -> "Homomorphism":
        """self after first (self ∘ first)."""
        if first.target is not self.source and not _same_lattice(first.target, self.source):
            raise CritlatError("composition mismatch")
        return Homomorphism(first.source, self.target, self.mapping[first.mapping],
                            check="none")

    def equal_map(self, other: "Homomorphism") -> bool:
        return (self.mapping.shape == other.mapping.shape
                and bool((self.mapping == other.mapping).all()))

    def as_label_dict(self) -> dict:
        return {lab: self.target.labels[self.mapping[i]]
                for i, lab in enumerate(self.source.labels)}

    def __repr__(self):
        return f"<Hom {self.source!r} -> {self.target!r}>"


def _hom_failure(src, tgt, m):
    """First (op, a, b) with m(a op b) != m(a) op m(b), or None.  A map into
    a lazy product is checked by its projections; a map out of one must
    factor as g o pi_j, and since pi_j is onto it is a homomorphism iff g is.
    Dense tables are compared in row chunks, all meets before any join."""
    if isinstance(tgt, ProductLattice):
        coords = product_coords(tgt.sizes, m)
        fails = (_hom_failure(src, f, c) for f, c in zip(tgt.factors, coords))
        return next((bad for bad in fails if bad is not None), None)
    if isinstance(src, ProductLattice):
        grid = m.reshape(src.sizes)
        for j, f in enumerate(src.factors):
            # the values along axis j, every other coordinate at 0
            axis = grid[tuple(slice(None) if k == j else slice(0, 1) for k in range(grid.ndim))]
            if (grid == axis).all():
                # a failing pair of f, as elements with every other coordinate at 0
                bad = _hom_failure(f, tgt, axis.ravel())
                stride = math.prod(src.sizes[j + 1:])
                return bad and (bad[0], bad[1] * stride, bad[2] * stride)
        raise BudgetExceeded(f"map out of {src!r} depends on several coordinates")
    rows = max(1, _HOM_CHUNK // src.n)
    for op, s_tab, t_tab in (("meet", src._meet, tgt._meet), ("join", src._join, tgt._join)):
        for lo in range(0, src.n, rows):
            bad = t_tab[m[lo:lo + rows, None], m] != m[s_tab[lo:lo + rows]]
            if bad.any():
                a, b = np.argwhere(bad)[0]
                return op, lo + int(a), int(b)
    return None


def _same_lattice(A, B) -> bool:
    return A is B or (A.labels == B.labels and tuple(A.covers) == tuple(B.covers))


# --- subuniverses ---

def subuniverse_closure(L, subset, include_bounds=False):
    """Close a nonempty subset under meet and join.

    Returns (sublattice, inclusion homomorphism).  The sublattice keeps the
    ambient element order.  With include_bounds, 0 and 1 are adjoined to the
    generating set first (bounded-sublattice closure).
    """
    idxs = {L.index(x) for x in subset}
    if not idxs:
        raise CritlatError("cannot close an empty subset")
    if include_bounds:
        idxs |= {L.bottom_i, L.top_i}
    closed = set(idxs)
    changed = True
    while changed:
        changed = False
        members = sorted(closed)
        for i in members:
            for j in members:
                for v in (L.meet_i(i, j), L.join_i(i, j)):
                    if v not in closed:
                        closed.add(v)
                        changed = True
    return _sublattice_from_indices(L, sorted(closed))


def _sublattice_from_indices(L, indices):
    labels = [L.labels[i] for i in indices]
    m = len(indices)
    leq = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(m):
            leq[a, b] = L.leq_i(indices[a], indices[b])
    sub = FiniteLattice._from_order(labels, leq)
    incl = Homomorphism(sub, L, np.array(indices, dtype=np.int32), check="none")
    return sub, incl


def enumerate_subuniverses(L, max_count=None, max_size=SUBUNIVERSE_SIZE_BOUND):
    """All nonempty meet-join-closed subsets of L, as sorted index tuples.

    Deterministic order: by (size, index tuple).
    """
    if L.n > max_size:
        raise BudgetExceeded(
            f"|L| = {L.n} exceeds the subuniverse enumeration bound {max_size}")
    seen = set()
    frontier = []
    for i in range(L.n):
        sub, _ = subuniverse_closure(L, [L.labels[i]])
        key = tuple(L.index(x) for x in sub.labels)
        if key not in seen:
            seen.add(key)
            frontier.append(key)
    while frontier:
        fresh = []
        for key in frontier:
            base = set(key)
            for i in range(L.n):
                if i in base:
                    continue
                sub, _ = subuniverse_closure(L, [L.labels[t] for t in base | {i}])
                k2 = tuple(L.index(x) for x in sub.labels)
                if k2 not in seen:
                    seen.add(k2)
                    fresh.append(k2)
                    if max_count is not None and len(seen) > max_count:
                        raise BudgetExceeded(
                            f"more than {max_count} subuniverses")
        frontier = fresh
    return sorted(seen, key=lambda t: (len(t), t))


def quotient(L, theta):
    """Quotient lattice L/theta plus the canonical projection.

    Blocks are ordered by least element; each block is labelled by its least
    element's label.
    """
    from .errors import HostMismatch, NotACongruence
    if theta.host is not L and not _same_lattice(theta.host, L):
        raise HostMismatch("congruence belongs to a different lattice")
    if not theta.is_valid():
        raise NotACongruence("partition is not compatible with meet and join")
    blocks = theta.blocks
    m = len(blocks)
    reps = [b[0] for b in blocks]
    labels = [L.labels[r] for r in reps]
    block_of = np.array(theta.block_of)
    leq = block_of[L._join[np.ix_(reps, reps)]] == np.arange(m)
    name = f"{L.name}/theta" if L.name else None
    Q = FiniteLattice._from_order(labels, leq, name=name)
    proj = Homomorphism(L, Q, block_of, check="none")
    return Q, proj


# --- isomorphism ---

def _iso_backtrack(K, L, find_all=False, budget=5_000_000):
    if K.n != L.n:
        return []
    sigK = K.iso_signature()
    sigL = L.iso_signature()
    if sorted(sigK) != sorted(sigL):
        return []
    n = K.n
    candidates = [[j for j in range(n) if sigL[j] == sigK[i]] for i in range(n)]
    out = []
    assigned = [-1] * n
    used = [False] * n
    steps = 0

    def extend(i):
        nonlocal steps
        if i == n:
            out.append(list(assigned))
            return not find_all
        for j in candidates[i]:
            if used[j]:
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceeded("isomorphism search budget exhausted")
            ok = True
            for p in range(i):
                q = assigned[p]
                if K.leq_i(p, i) != L.leq_i(q, j) or K.leq_i(i, p) != L.leq_i(j, q):
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                assigned[i] = -1
                used[j] = False
        return False

    extend(0)
    return out


def is_isomorphic(K, L) -> Optional[Homomorphism]:
    """Order isomorphism K -> L if one exists, else None.

    The witness is deterministic: the lexicographically least image sequence
    under the canonical element orders.
    """
    found = _iso_backtrack(K, L, find_all=False)
    if not found:
        return None
    return Homomorphism(K, L, np.array(found[0], dtype=np.int32), check="none")


def all_isomorphisms(K, L):
    return [Homomorphism(K, L, np.array(a, dtype=np.int32), check="none")
            for a in _iso_backtrack(K, L, find_all=True)]


# --- chains ---

def maximal_chains(L):
    """All maximal chains bottom-to-top, as label tuples, in cover order."""
    ups = {}
    for i, j in L.covers:
        ups.setdefault(i, []).append(j)
    out = []

    def walk(path):
        cur = path[-1]
        nxt = sorted(ups.get(cur, ()))
        if not nxt:
            out.append(tuple(L.labels[k] for k in path))
            return
        for j in nxt:
            walk(path + [j])

    walk([L.bottom_i])
    return out


def spanning_chains(L, lengths):
    """All chains through 0 and 1 whose length (#elements - 1) is in `lengths`.

    Chains are arbitrary totally ordered subsets; the intermediate steps need
    not be covers.  Reported bottom-to-top, deterministically ordered.
    """
    lengths = set(lengths)
    if not lengths:
        return []
    longest = max(lengths)
    out = []

    def walk(path):
        cur = path[-1]
        if cur == L.top_i:
            if len(path) - 1 in lengths:
                out.append(tuple(L.labels[k] for k in path))
            return
        if len(path) - 1 >= longest:
            return
        for j in range(L.n):
            if j != cur and L.leq_i(cur, j):
                walk(path + [j])

    walk([L.bottom_i])
    return sorted(out, key=lambda c: (len(c), tuple(L.index(x) for x in c)))


def chain_order(C):
    """The labels of the chain lattice C from bottom to top; CritlatError
    when C is not a chain."""
    order = sorted(range(C.n), key=lambda i: int(C.heights[i]))
    for a, b in zip(order, order[1:]):
        if not C.leq_i(a, b):
            raise CritlatError(f"{C!r} is not a chain lattice")
    return [C.labels[i] for i in order]


# --- distributivity ---

def is_distributive(L, max_size=512):
    """Exhaustive check of x∧(y∨z) = (x∧y)∨(x∧z); returns (bool, witness).

    A lazy product is checked factor by factor: a product is distributive iff
    every factor is.  A failing triple of one factor, with every other
    coordinate at the bottom of its factor, fails in the product too.
    """
    if isinstance(L, ProductLattice):
        for k, f in enumerate(L.factors):
            ok, w = is_distributive(f, max_size=max_size)
            if not ok:
                bottoms = [g.bottom_i for g in L.factors]

                def lift(x):
                    coords = bottoms[:k] + [f.index(x)] + bottoms[k + 1:]
                    return L.labels[product_index(L.sizes, coords)]
                return False, tuple(lift(x) for x in w)
        return True, None
    if L.n > max_size:
        raise BudgetExceeded(f"distributivity check needs |L| <= {max_size}")
    me, jo = L._meet, L._join
    for x in range(L.n):
        lhs = me[x][jo]
        rhs = jo[me[x][:, None], me[x][None, :]]
        if not (lhs == rhs).all():
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return False, (L.labels[x], L.labels[y], L.labels[z])
    return True, None


# --- partial lattices ---

class PartialLattice:
    """A set with partially defined meet and join tables.

    Operations are stored symmetrically; bounds are optional and marked only
    when the structure is spanning (contains designated 0 and 1).
    """

    __slots__ = ("labels", "_index", "meets", "joins", "bottom_i", "top_i", "name")

    def __init__(self, labels, meets, joins, bottom_i=None, top_i=None, name=None):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self.meets = dict(meets)
        self.joins = dict(joins)
        for table in (self.meets, self.joins):
            for (i, j), k in list(table.items()):
                if table.get((j, i), k) != k:
                    raise CritlatError("partial operation is not symmetric")
                table[(j, i)] = k
        self.bottom_i = bottom_i
        self.top_i = top_i
        self.name = name

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"{label!r} is not an element of {self!r}") from None

    def meet_defined(self, x, y):
        return (self.index(x), self.index(y)) in self.meets

    def join_defined(self, x, y):
        return (self.index(x), self.index(y)) in self.joins

    def meet(self, x, y):
        return self.labels[self.meets[(self.index(x), self.index(y))]]

    def join(self, x, y):
        return self.labels[self.joins[(self.index(x), self.index(y))]]

    @property
    def bounded(self):
        return self.bottom_i is not None and self.top_i is not None

    def dual(self):
        return PartialLattice(self.labels, self.joins, self.meets,
                              bottom_i=self.top_i, top_i=self.bottom_i,
                              name=f"dual({self.name})" if self.name else None)

    @classmethod
    def from_lattice(cls, L, bounded=True):
        meets = {}
        joins = {}
        for i in range(L.n):
            for j in range(L.n):
                meets[(i, j)] = L.meet_i(i, j)
                joins[(i, j)] = L.join_i(i, j)
        return cls(L.labels, meets, joins,
                   bottom_i=L.bottom_i if bounded else None,
                   top_i=L.top_i if bounded else None, name=L.name)

    def __repr__(self):
        nm = self.name or f"{self.n} elements"
        return f"<PartialLattice {nm}>"


def induced_partial_sublattice(L, subset) -> PartialLattice:
    """Partial sublattice on `subset`: an operation is defined exactly when its
    value computed in L lies in the subset.  Requires 0 and 1 in the subset."""
    idxs = sorted({L.index(x) for x in subset})
    if L.bottom_i not in idxs or L.top_i not in idxs:
        raise NotSpanning("subset must contain both bounds")
    pos = {g: k for k, g in enumerate(idxs)}
    meets = {}
    joins = {}
    for a, ia in enumerate(idxs):
        for b, ib in enumerate(idxs):
            v = L.meet_i(ia, ib)
            if v in pos:
                meets[(a, b)] = pos[v]
            v = L.join_i(ia, ib)
            if v in pos:
                joins[(a, b)] = pos[v]
    return PartialLattice([L.labels[i] for i in idxs], meets, joins,
                          bottom_i=pos[L.bottom_i], top_i=pos[L.top_i])


def embed_partial(K: PartialLattice, L, preserve_bounds=None,
                  budget=EMBED_NODE_BUDGET) -> Optional[dict]:
    """Injective map K -> L preserving every defined meet/join, or None.

    Bounds of K map to bounds of L when K is bounded (overridable).  The
    search is exhaustive backtracking; the first (lexicographically least)
    witness is returned as a label dict.
    """
    if preserve_bounds is None:
        preserve_bounds = K.bounded
    n, m = K.n, L.n
    if n > m:
        return None
    assigned = [-1] * n
    used = [False] * m
    # triples to check once their last participant is placed
    constraints = [[] for _ in range(n)]
    for (i, j), k in K.meets.items():
        if i <= j:
            constraints[max(i, j, k)].append(("meet", i, j, k))
    for (i, j), k in K.joins.items():
        if i <= j:
            constraints[max(i, j, k)].append(("join", i, j, k))
    steps = 0

    def candidates(i):
        if preserve_bounds and i == K.bottom_i:
            return [L.bottom_i]
        if preserve_bounds and i == K.top_i:
            return [L.top_i]
        return range(m)

    def extend(i):
        nonlocal steps
        if i == n:
            return True
        for c in candidates(i):
            if used[c]:
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceeded("partial embedding search budget exhausted")
            assigned[i] = c
            ok = True
            for op, a, b, k in constraints[i]:
                fa, fb, fk = assigned[a], assigned[b], assigned[k]
                val = L.meet_i(fa, fb) if op == "meet" else L.join_i(fa, fb)
                if val != fk:
                    ok = False
                    break
            if ok:
                used[c] = True
                if extend(i + 1):
                    return True
                used[c] = False
            assigned[i] = -1
        return False

    if extend(0):
        return {K.labels[i]: L.labels[assigned[i]] for i in range(n)}
    return None


# --- builtin generators ---

_BUILTIN_LEAST_N = {"chain": 1, "M": 3, "bool": 1}


def builtin(name: str):
    """Builtin lattices by name: 2, chain:n (n>=1), M:n (n>=3), N5, bool:n
    (n>=1), F22.  A malformed or too small n raises FormatError."""
    kind, colon, arg = name.partition(":")
    if colon and kind in _BUILTIN_LEAST_N:
        try:
            n = int(arg)
        except ValueError:
            raise FormatError(f"{name!r}: n must be an integer") from None
        if n < _BUILTIN_LEAST_N[kind]:
            raise FormatError(f"{name!r}: {kind}:n needs n >= {_BUILTIN_LEAST_N[kind]}")
    if name == "2":
        return validate_lattice(["0", "1"], [("0", "1")], name="2")
    if colon and kind == "chain":
        labels = ["0"] + [f"c{k}" for k in range(1, n)] + ["1"]
        return validate_lattice(labels, list(zip(labels, labels[1:])), name=name)
    if colon and kind == "M":
        labels = ["0"] + [f"x{k}" for k in range(1, n + 1)] + ["1"]
        covers = [("0", f"x{k}") for k in range(1, n + 1)] + \
                 [(f"x{k}", "1") for k in range(1, n + 1)]
        return validate_lattice(labels, covers, name=name)
    if name == "N5":
        labels = ["0", "x1", "x2", "x3", "1"]
        covers = [("0", "x1"), ("x1", "x2"), ("x2", "1"), ("0", "x3"), ("x3", "1")]
        return validate_lattice(labels, covers, name="N5")
    if colon and kind == "bool":
        two = builtin("2")
        out = product(*([two] * n)) if n > 1 else two
        out.name = name
        return out
    if name == "F22":
        labels = ["0", "x1^x2", "x1", "x2", "x1vx2", "1"]
        covers = [("0", "x1^x2"), ("x1^x2", "x1"), ("x1^x2", "x2"),
                  ("x1", "x1vx2"), ("x2", "x1vx2"), ("x1vx2", "1")]
        return validate_lattice(labels, covers, name="F22")
    raise FormatError(f"unknown builtin lattice {name!r}")


# --- serialization ---

def lattice_to_json(L) -> dict:
    return {
        "name": L.name or "",
        "elements": list(L.labels),
        "covers": [[L.labels[i], L.labels[j]] for i, j in L.covers],
    }


def lattice_from_json(obj) -> FiniteLattice:
    try:
        labels = obj["elements"]
        covers = [tuple(c) for c in obj["covers"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad lattice object: {exc}") from None
    return validate_lattice(labels, covers, name=obj.get("name") or None)


def load_lattice(path) -> FiniteLattice:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None
    return lattice_from_json(obj)


def save_lattice(L, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lattice_to_json(L), fh, indent=2, sort_keys=True)
        fh.write("\n")


def lattice_dot(L, graph_name=None) -> str:
    """Hasse diagram in DOT: one node per element, one edge per cover,
    elements of equal height share a rank."""
    lines = [f'digraph "{graph_name or L.name or "lattice"}" {{',
             "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, lab in enumerate(L.labels):
        lines.append(f'  n{i} [label="{lab}"];')
    by_height = {}
    for i, h in enumerate(L.heights):
        by_height.setdefault(int(h), []).append(i)
    for h in sorted(by_height):
        row = "; ".join(f"n{i}" for i in by_height[h])
        lines.append(f"  {{ rank=same; {row}; }}")
    for i, j in L.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
