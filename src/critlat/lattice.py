"""Finite lattices, partial lattices, and lattice homomorphisms.

Lattices are immutable once built, and a dense one is built complete by
one constructor, FiniteLattice(labels, leq, meet, join, ...), which trusts
its tables; validate_lattice is the checked entry.  Elements are opaque
string labels; the canonical element order is the input order.  Order, meet
and join tables are derived eagerly at construction for ordinary ("dense")
lattices, since every downstream search hits meet/join in inner loops.  Any
product of more than PRODUCT_CAP elements uses a lazy componentwise
representation (ProductLattice) with the same read interface.
"""

from __future__ import annotations

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
    HostMismatch,
    NotALattice,
    NotASublattice,
    NotSpanning,
    SizeCapExceeded,
    UnknownElement,
)

PRODUCT_CAP = 4096  # largest product with dense tables; larger ones are lazy
SUBUNIVERSE_SIZE_BOUND = 10
EMBED_NODE_BUDGET = 2_000_000
ISO_SEARCH_BUDGET = 5_000_000
_HOM_CHUNK = 1 << 20  # table entries compared at once by the homomorphism check
_SEARCH_CHUNK = 1 << 19  # bytes (about) one chunked step of the table build holds (one row at least)
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

    # --- construction ---

    def __init__(self, labels, leq, meet, join, name=None, covers=None, ext=None, factors=None):
        """The lattice of order, meet and join tables known to be a
        lattice's; nothing is checked.  Bounds and heights are derived, and
        the sorted covers too unless given.  A linear extension ext (a list)
        spares a topological sort; factors are those of a direct product."""
        for table in (leq, meet, join):
            table.flags.writeable = False
        if covers is None:
            covers, ext = _covers_of_order(leq)
        self.name = name
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._leq, self._meet, self._join = leq, meet, join
        self.covers = covers
        self.heights = _heights_from_covers(len(self.labels), covers, ext)
        # 0 is the one element of height 0, and 1 is higher than all others
        self.bottom_i = int(self.heights.argmin())
        self.top_i = int(self.heights.argmax())
        self._signature = None
        self.factors = factors

    @classmethod
    def _from_order(cls, labels, leq, name=None):
        """Build from a reflexive partial-order matrix, as _from_covers."""
        leq = np.asarray(leq, dtype=bool)
        return cls._from_covers(labels, leq, *_covers_of_order(leq), name=name)

    @classmethod
    def _from_covers(cls, labels, leq, covers, ext, name=None):
        """Build from a partial order given by its matrix, its sorted covers
        and a linear extension ext (a list).  One pass down the upper covers
        gives every pair's first common upper bound in ext, and the order is
        a lattice iff it has a top and a bottom and that table is monotone
        along each cover x ⋖ c where x has two or more upper covers; the
        meets are the same pass up the lower covers (README, "Lattice
        tables").  Otherwise NotALattice names the first pair without a
        join or meet, in row-major order over i <= j, the join checked
        before the meet."""
        ups, downs = _neighbours(len(labels), covers)
        join, meet = _bound_tables(leq, ext, ups, downs)
        # one maximal and one minimal element: a top and a bottom
        if list(map(len, ups)).count(0) == 1 == list(map(len, downs)).count(0) \
                and not _breaks(leq, join, ups).any():
            return cls(labels, leq, meet, join, name, covers, ext)
        raise _first_failure(labels, leq, join, meet, ups, downs)

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


def _covers_of_order(leq):
    """(covers, ext): the sorted cover pairs of a partial order and a linear
    extension, the elements stably sorted by how many lie below them.
    Walking the strict up-set of i in ext, the first element left is an
    upper cover, and taking it removes everything above it (the up-sets as
    Python int bit sets, bit p for the element at position p)."""
    ext = leq.sum(axis=0).argsort(kind="stable")
    rows = np.packbits(leq[:, ext], axis=1, bitorder="little")
    data, width = rows.tobytes(), rows.shape[1]
    ups = [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
    ext = ext.tolist()
    covers = []
    for p, i in enumerate(ext):
        rest = ups[i] ^ (1 << p)
        while rest:
            c = ext[(rest & -rest).bit_length() - 1]
            covers.append((i, c))
            rest &= ~ups[c]
    covers.sort()
    return tuple(covers), ext


def _neighbours(n, covers):
    """The upper and the lower covers of each element, as lists."""
    ups, downs = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, j in covers:
        ups[i].append(j)
        downs[j].append(i)
    return ups, downs


def _bound_tables(leq, ext, ups, downs):
    """(join, meet): for each pair its first common upper bound in the
    linear extension ext (a list) and its last common lower bound, n where
    there is none.  The common upper bounds of x and y are x itself if
    y <= x, and else those of c and y over the upper covers c of x, so one
    pass from the top down fills row x with the least position in its own
    and its covers' rows; the meets are the same pass upward, greatest
    position first."""
    n = len(ext)
    pos = np.empty(n, dtype=np.int32)
    pos[ext] = range(n)
    # position -> element; n (join) and -1 (meet, wrapping round) mean none
    element = np.array(ext + [n], dtype=np.int32)
    step = max(1, _SEARCH_CHUNK // (8 * n))  # rows converted at once: take copies indices to intp
    tables = []
    for le, walk, succ, best, none in ((leq.T, ext[::-1], ups, np.minimum, n),
                                       (leq, ext, downs, np.maximum, -1)):
        # C order (np.where would follow le.T), so that rows are contiguous
        t = np.full((n, n), none, dtype=np.int32)
        np.copyto(t, pos[:, None], where=le)
        rows = [*t]
        for x in walk:
            for c in succ[x]:
                best(rows[x], rows[c], out=rows[x])
        for lo in range(0, n, step):
            element.take(t[lo:lo + step], out=t[lo:lo + step], mode="wrap")
        tables.append(t)
    return tables


def _breaks(le, table, succ):
    """Mask of the columns y where table[x, y] <= table[c, y] fails in the
    order le for some cover c of an x with two or more covers (succ), taken
    in chunks of covers.  Every entry of table is an element."""
    pairs = [(x, c) for x, cs in enumerate(succ) if len(cs) > 1 for c in cs]
    bad = np.zeros(len(le), dtype=bool)
    step = max(1, _SEARCH_CHUNK // len(le))
    for lo in range(0, len(pairs), step):
        ends = table[pairs[lo:lo + step]]
        bad |= ~le[ends[:, 0], ends[:, 1]].all(axis=0)
    return bad


def _first_failure(labels, leq, join, meet, ups, downs):
    """NotALattice for the first pair i <= j, in row-major order, without a
    join or (checked second) a meet.  The join of i and j fails iff
    join[i, j] is n or up(i) & up(j) is not up(join[i, j]); then column j
    holds an n or a break, and so does column i.  The search runs over
    the elements so marked, in row chunks of at most _SEARCH_CHUNK bytes
    of intersected bit rows.  The tables are clipped in place."""
    n = len(labels)
    sides = []
    for table, le, succ in ((join, leq, ups), (meet, leq.T, downs)):
        bare = (table == n).any(axis=0)
        # with no bound taken as element n - 1 the pair still fails below,
        # since every up-set holds its own element
        np.minimum(table, n - 1, out=table)
        sides.append((table, np.packbits(le, axis=1), bare | _breaks(le, table, succ)))
    marked = np.flatnonzero(sides[0][2] | sides[1][2])
    width, m, lo = sides[0][1].shape[1], len(marked), 0
    while lo < m:
        hi = min(m, lo + max(1, _SEARCH_CHUNK // ((m - lo) * width)))
        r, c = marked[lo:hi, None], marked[None, lo:]
        fails = []
        for table, sets, _ in sides:
            fails.append((sets[r] & sets[c] != sets[table[r, c]]).any(axis=2))
        hit = fails[0] | fails[1]
        if hit.any():
            a, b = np.argwhere(hit)[0]
            return NotALattice((labels[marked[lo + a]], labels[marked[lo + b]]),
                               "join" if fails[0][a, b] else "meet")
        lo = hi
    raise AssertionError("a marked order without a failing pair")


def _heights_from_covers(n, covers, ext=None):
    """Length of the longest chain from 0 to each element, walking a linear
    extension (Kahn's order unless given)."""
    ups = _neighbours(n, covers)[0]
    heights = [0] * n
    for u in _kahn(ups) if ext is None else ext:
        for v in ups[u]:
            heights[v] = max(heights[v], heights[u] + 1)
    return np.array(heights, dtype=np.int32)


def _kahn(succ):
    """Kahn's topological order of the graph with successor lists succ;
    the elements on a cycle or above one are left out."""
    indeg = [0] * len(succ)
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    order = [v for v in range(len(succ)) if not indeg[v]]
    for v in order:
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    return order


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
    succ = [[] for _ in range(n)]
    for pair in covers:
        lo, hi = pair
        if lo not in index:
            raise UnknownElement(f"cover references unknown label {lo!r}")
        if hi not in index:
            raise UnknownElement(f"cover references unknown label {hi!r}")
        if lo == hi:
            raise CycleDetected(f"self-loop at {lo!r}")
        succ[index[lo]].append(index[hi])
    order = _kahn(succ)
    if len(order) < n:
        i, j = _cycle_pair(succ, sorted(set(range(n)) - set(order)))
        raise CycleDetected(f"cycle through {labels[i]!r} and {labels[j]!r}")
    # the up-set of each element as a Python int, closed in reverse order;
    # a successor of v is a cover iff it lies strictly above no other one
    up = [1 << v for v in range(n)]
    reduced = []
    for v in reversed(order):
        above = 0
        for w in succ[v]:
            up[v] |= up[w]
            above |= up[w] ^ (1 << w)
        for w in succ[v]:
            if not above >> w & 1:
                reduced.append((v, w))
                above |= 1 << w  # a repeated pair once
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(u.to_bytes(width, "little") for u in up), dtype=np.uint8)
    leq = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")
    return FiniteLattice._from_covers(labels, leq.view(bool), tuple(sorted(reduced)), order,
                                      name=name)


def _cycle_pair(succ, stuck):
    """(i, j): i the least element on a cycle, j the least other element of
    its strongly connected component, searched among the sorted `stuck`
    elements that Kahn's order left out, which hold every cycle."""
    pred = [[] for _ in succ]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    for i in stuck:
        ring = (_reach(succ, i) & _reach(pred, i)) - {i}
        if ring:
            return i, min(ring)


def _reach(succ, v):
    """Elements reachable from v along succ, v included."""
    seen, stack = {v}, [v]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class ProductLattice(_Lattice):
    """Lazy direct product: componentwise order and operations, no dense tables.

    What product() builds, for every caller, above PRODUCT_CAP elements.
    Element i has coordinates product_coords(sizes, i); labels, covers,
    heights and the label index are computed on first use.
    """

    __slots__ = ("name", "factors", "sizes", "_labels", "_index", "bottom_i", "top_i",
                 "_covers", "_heights")
    _kind = "ProductLattice"

    def __init__(self, factors, name=None):
        self.sizes = tuple(f.n for f in factors)
        total = math.prod(self.sizes)
        if total > _LAZY_LABEL_LIMIT:
            raise SizeCapExceeded(f"product of size {total} exceeds the lazy limit")
        self.name = name
        self.factors = tuple(factors)
        self._labels = None
        self._index = None
        self.bottom_i = int(product_index(self.sizes, [f.bottom_i for f in factors]))
        self.top_i = int(product_index(self.sizes, [f.top_i for f in factors]))
        self._covers = None
        self._heights = None

    @property
    def n(self) -> int:
        return math.prod(self.sizes)

    @property
    def labels(self):
        if self._labels is None:
            self._labels = _product_labels(self.factors)
        return self._labels

    def index(self, label: str) -> int:
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
        return super().index(label)

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
        if self._covers is None:
            self._covers = _product_covers(self.factors)
        return self._covers

    @property
    def heights(self):
        """Height of each element: the sum of its coordinates' heights."""
        if self._heights is None:
            coords = product_coords(self.sizes, np.arange(self.n))
            self._heights = sum(f.heights[c] for f, c in zip(self.factors, coords))
        return self._heights


def dual(L):
    """Same universe, reverse ordering; meet and join tables swap.  A
    product's factors are dualized, its coordinates kept."""
    name = f"dual({L.name})" if L.name else None
    factors = L.factors and tuple(dual(f) for f in L.factors)
    if isinstance(L, ProductLattice):
        return ProductLattice(factors, name=name)
    return FiniteLattice(L.labels, np.ascontiguousarray(L._leq.T), L._join, L._meet, name=name,
                         covers=tuple(sorted((j, i) for i, j in L.covers)), factors=factors)


def _product_covers(factors):
    """Sorted cover pairs of a product: a cover raises one coordinate by a
    cover of its factor."""
    sizes = tuple(f.n for f in factors)
    coords = product_coords(sizes, np.arange(math.prod(sizes)))
    lo, hi = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for k, f in enumerate(factors):
        for a, b in f.covers:
            below = np.nonzero(coords[k] == a)[0]
            up = [c[below] for c in coords]
            up[k] = np.full(len(below), b)
            lo.append(below)
            hi.append(product_index(sizes, up))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    order = np.lexsort((hi, lo))
    return tuple(zip(lo[order].tolist(), hi[order].tolist()))


def _require_dense(L, need):
    """BudgetExceeded unless L is a FiniteLattice, the message opening with
    need ("quotient needs"): each entry that reads the dense tables calls
    this before it does, since a lazy product has none."""
    if not isinstance(L, FiniteLattice):
        raise BudgetExceeded(f"{need} a dense lattice, got a {type(L).__name__} "
                             f"of {L.n} elements")


def _tables(L):
    """(leq, meet, join) of L; a lazy product's are built from its factors'."""
    if isinstance(L, ProductLattice):
        return _product_tables(L.factors)
    return L._leq, L._meet, L._join


def _product_tables(factors):
    """The componentwise tables of a product, read off its factors' in the
    row-major encoding: (a, b) <= (c, d) iff a <= c and b <= d, and
    (a, b) op (c, d) = (a op c) * |B| + (b op d).  The factors are split in
    halves, so that the last step broadcasts over long rows."""
    if len(factors) == 1:
        return _tables(factors[0])
    half = len(factors) // 2
    first, second = _product_tables(factors[:half]), _product_tables(factors[half:])
    m = len(second[0])

    def grid(x):
        return x.reshape(len(x) * m, -1)
    return (grid(first[0][:, None, :, None] & second[0][None, :, None, :]),
            *(grid(s[:, None, :, None] * m + t[None, :, None, :])
              for s, t in zip(first[1:], second[1:])))


def product(*lattices):
    """Direct product with componentwise operations.

    The result carries dense tables up to PRODUCT_CAP elements and is a
    lazy ProductLattice above (SizeCapExceeded above the lazy limit).  Use
    product_projections() to get the canonical projections as
    Homomorphisms.
    """
    if not lattices:
        raise CritlatError("product of zero lattices")
    if len(lattices) == 1:
        return lattices[0]
    return _product(lattices, "x".join(f.name or "?" for f in lattices))


def _product(factors, name):
    """The product of two or more factors, named name (see product)."""
    if math.prod(f.n for f in factors) > PRODUCT_CAP:
        return ProductLattice(factors, name=name)
    return FiniteLattice(_product_labels(factors), *_product_tables(factors), name=name,
                         covers=_product_covers(factors), factors=tuple(factors))


def product_projections(P):
    """Canonical projections of a product onto its factors."""
    factors = getattr(P, "factors", None)
    if not factors:
        raise CritlatError("not a product lattice")
    coords = product_coords([f.n for f in factors], np.arange(P.n))
    return [Homomorphism._trusted(P, f, c) for f, c in zip(factors, coords)]


class Homomorphism:
    """A total map between lattices preserving meet and join.

    The constructor checks the mapping: a one-dimensional integer array
    (bool refused) of the source's length, its values indices of the target,
    preserving meet and join on every pair.  Maps the library computes are
    built by _trusted, which checks nothing."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        m = np.asarray(mapping)
        if m.ndim != 1 or m.dtype.kind not in "iu":
            raise CritlatError("mapping must be a one-dimensional array of integers")
        if len(m) != source.n:
            raise CritlatError("mapping length does not match source size")
        if m.size and (m.min() < 0 or m.max() >= target.n):
            raise CritlatError("mapping hits indices outside the target")
        self.source, self.target = source, target
        self.mapping = m.astype(np.int32)   # a copy: the caller's array stays writable
        self.mapping.flags.writeable = False
        self.validate()

    @classmethod
    def _trusted(cls, source, target, mapping):
        """A map the library computed, stored as a read-only int32 array;
        nothing is checked."""
        f = cls.__new__(cls)
        f.source, f.target = source, target
        f.mapping = np.asarray(mapping, dtype=np.int32)
        f.mapping.flags.writeable = False
        return f

    @classmethod
    def from_labels(cls, source, target, label_map: dict):
        """The checked map x -> label_map[x], keyed by exactly the source's
        elements; CritlatError names a label left out or a key too many."""
        labels = set(source.labels)
        for x in [*source.labels, *label_map]:
            if x not in label_map:
                raise CritlatError(f"the label map leaves out {x!r}, an element of the source")
            if x not in labels:
                raise CritlatError(f"the label map maps {x!r}, not an element of the source")
        mapping = [target.index(label_map[lab]) for lab in source.labels]
        return cls(source, target, mapping)

    @classmethod
    def identity(cls, L):
        return cls._trusted(L, L, np.arange(L.n))

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
        return Homomorphism._trusted(first.source, self.target, self.mapping[first.mapping])

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
    a lazy product is checked by its projections, a map out of one by
    _product_hom_failure.  Dense tables are compared in row chunks, all
    meets before any join."""
    if isinstance(tgt, ProductLattice):
        coords = product_coords(tgt.sizes, m)
        fails = (_hom_failure(src, f, c) for f, c in zip(tgt.factors, coords))
        return next((bad for bad in fails if bad is not None), None)
    if isinstance(src, ProductLattice):
        return _product_hom_failure(src, tgt, m)
    rows = max(1, _HOM_CHUNK // src.n)
    for op, s_tab, t_tab in (("meet", src._meet, tgt._meet), ("join", src._join, tgt._join)):
        for lo in range(0, src.n, rows):
            bad = t_tab[m[lo:lo + rows, None], m] != m[s_tab[lo:lo + rows]]
            if bad.any():
                a, b = np.argwhere(bad)[0]
                return op, lo + int(a), int(b)
    return None


def _product_hom_failure(src, tgt, m):
    """_hom_failure for a map h out of a lazy product into a dense lattice.

    A map that factors as g o pi_j is a homomorphism iff g is, pi_j being
    onto.  Otherwise h is one iff (1) each axis map x -> h(e_j(x)), the
    other coordinates at 1 and again at 0, is one, and (2) h(x) is the meet
    of the h(e_j^1(x_j)) and the join of the h(e_j^0(x_j)) for every x.
    (2) is checked one step at a time: with y_k holding the first k
    coordinates of x and the rest at 1, h(y_k) = h(y_(k-1)) ^ h(e_k^1(x_k)),
    and dually at 0; the first failing step is the witness.  Meets (at 1)
    come before joins (at 0)."""
    grid = m.reshape(src.sizes)
    for j, f in enumerate(src.factors):
        # the values along axis j, every other coordinate at 0
        axis = grid[tuple(slice(None) if k == j else slice(0, 1) for k in range(grid.ndim))]
        if (grid == axis).all():
            # a failing pair of f, as elements with every other coordinate at 0
            bad = _hom_failure(f, tgt, axis.ravel())
            stride = math.prod(src.sizes[j + 1:])
            return bad and (bad[0], bad[1] * stride, bad[2] * stride)
    coords = product_coords(src.sizes, np.arange(src.n))
    for op, bound, t_tab in (("meet", "top_i", tgt._meet), ("join", "bottom_i", tgt._join)):
        rest = [getattr(f, bound) for f in src.factors]
        # embed[j][a]: the element with coordinate a on axis j, the rest at the bound
        embed = [product_index(src.sizes, rest[:j] + [np.arange(f.n)] + rest[j + 1:])
                 for j, f in enumerate(src.factors)]
        for f, e in zip(src.factors, embed):
            bad = _hom_failure(f, tgt, m[e])
            if bad is not None:
                return bad[0], int(e[bad[1]]), int(e[bad[2]])
        y = embed[0][coords[0]]
        for k in range(1, len(embed)):
            z = product_index(src.sizes, list(coords[:k + 1]) + rest[k + 1:])
            e = embed[k][coords[k]]
            wrong = m[z] != t_tab[m[y], m[e]]
            if wrong.any():
                x = int(np.argmax(wrong))
                return op, int(y[x]), int(e[x])
            y = z
    return None


def _same_lattice(A, B) -> bool:
    return A is B or (A.labels == B.labels and tuple(A.covers) == tuple(B.covers))


def _same_or_dual(A, B) -> bool:
    """Whether B is A or A's dual: the same labels, the same or the reversed
    covers."""
    return _same_lattice(A, B) or (
        A.labels == B.labels
        and tuple(sorted((j, i) for i, j in A.covers)) == tuple(B.covers))


# --- subuniverses ---

def subuniverse_closure(L, subset, include_bounds=False):
    """Close a nonempty subset under meet and join.

    Returns (sublattice, inclusion homomorphism).  The sublattice keeps the
    ambient element order.  With include_bounds, 0 and 1 are adjoined to the
    generating set first (bounded-sublattice closure).
    """
    return _sublattice_from_indices(L, _closed_indices(L, subset, include_bounds))


def _closed_indices(L, subset, include_bounds=False):
    """The sorted element indices of the subuniverse subuniverse_closure
    builds."""
    _require_dense(L, "subuniverse closure needs")
    idxs = {L.index(x) for x in subset}
    if not idxs:
        raise CritlatError("cannot close an empty subset")
    if include_bounds:
        idxs |= {L.bottom_i, L.top_i}
    # the tables are read in place: converting them costs more than a
    # closure of a few elements in a long chain
    return sorted(_closure(L.n, idxs, (L._meet, L._join) * 2))


def _truncate(f, members, start):
    """Undo the graph additions made since len(members) was start."""
    for z in members[start:]:
        f[z] = -1
    del members[start:]


def _extend_graph(f, members, a, g, tables):
    """Add (a, g) to the graph of the partial map f (L-index -> M-index,
    -1 where undefined) and close it under componentwise meet and join in
    L x M, the tables being (meet and join of L, meet and join of M), read
    as t[x][y].  On the first pair that makes the relation non-functional,
    undo the additions and return False.  This is the one meet-join
    closure: the graph of the identity of L closes to a sublattice."""
    Lm, Lj, Mm, Mj = tables
    start = len(members)
    if f[a] != -1:
        return f[a] == g
    f[a] = g
    members.append(a)
    i = start
    while i < len(members):
        x = members[i]
        fx = f[x]
        for y in members[:i]:
            fy = f[y]
            for l, m in ((Lm[x][y], Mm[fx][fy]), (Lj[x][y], Mj[fx][fy])):
                if f[l] == -1:
                    f[l] = m
                    members.append(l)
                elif f[l] != m:
                    _truncate(f, members, start)
                    return False
        i += 1
    return True


def _closure(n, gens, tables):
    """The indices of the sublattice generated by gens in an n-element
    lattice with tables (meet, join, meet, join), in the order added."""
    f, members = [-1] * n, []
    for g in gens:
        _extend_graph(f, members, g, g, tables)
    return members


def _sublattice_from_indices(L, indices):
    """The sublattice of L on a meet- and join-closed index set, its tables
    read off L's; NotASublattice when the set is not closed."""
    idx = np.asarray(indices, dtype=np.intp)
    pos = np.full(L.n, -1, dtype=np.int32)
    pos[idx] = np.arange(len(idx))
    grid = idx[:, None], idx
    meet, join = pos[L._meet[grid]], pos[L._join[grid]]
    if (meet < 0).any() or (join < 0).any():
        raise NotASublattice("index set is not closed under meet and join")
    sub = FiniteLattice([L.labels[i] for i in indices], L._leq[grid], meet, join)
    return sub, Homomorphism._trusted(sub, L, idx)


def enumerate_subuniverses(L):
    """All nonempty meet-join-closed subsets of L, as sorted index tuples.

    Deterministic order: by (size, index tuple).  Each found subuniverse is
    extended by every element outside it, one closure each.
    """
    _require_dense(L, "subuniverse enumeration needs")
    if L.n > SUBUNIVERSE_SIZE_BOUND:
        raise BudgetExceeded(f"|L| = {L.n} exceeds the subuniverse enumeration "
                             f"bound {SUBUNIVERSE_SIZE_BOUND}")
    tables = (L._meet.tolist(), L._join.tolist()) * 2
    f, members = [-1] * L.n, []
    seen = set()
    frontier = [()]
    while frontier:
        fresh = []
        for key in frontier:
            for i in key:       # key is closed: its elements alone
                _extend_graph(f, members, i, i, tables)
            for i in range(L.n):
                if f[i] == -1:
                    _extend_graph(f, members, i, i, tables)
                    sub = tuple(sorted(members))
                    _truncate(f, members, len(key))
                    if sub not in seen:
                        seen.add(sub)
                        fresh.append(sub)
            _truncate(f, members, 0)
        frontier = fresh
    return sorted(seen, key=lambda t: (len(t), t))


def quotient(L, theta):
    """Quotient lattice L/theta plus the canonical projection.

    Blocks are ordered by least element; each block is labelled by its least
    element's label.  theta is not checked again: a Congruence is checked
    where it is made, or comes from the library's trusted Congruence.from_rep.

    The covers of L/theta are the pairs ([u], [v]) of covers u ⋖ v of L
    whose ends lie in different blocks, handed to the trusted constructor.
    Each is a cover: if [u] < [w] < [v], then (w ∨ u) ∧ v lies in [w], so
    strictly between u and v.  And each cover [a] ⋖ [b] is one of them:
    a ∧ b₀, b₀ the least element of [b], lies in [a], and a maximal chain of
    L from it up to b₀ crosses from [a] to [b] at a cover of L, every
    element on it lying in [a] or [b].
    """
    _require_dense(L, "quotient needs")
    if theta.host is not L and not _same_lattice(theta.host, L):
        raise HostMismatch("congruence belongs to a different lattice")
    reps = [b[0] for b in theta.blocks]
    bo = theta.block_of
    block_of = np.array(bo, dtype=np.int32)
    meet, join = (block_of[table[reps][:, reps]] for table in (L._meet, L._join))
    covers = tuple(sorted({(bo[u], bo[v]) for u, v in L.covers if bo[u] != bo[v]}))
    name = f"{L.name}/theta" if L.name else None
    # [a] <= [b] iff [a] v [b] = [b]
    Q = FiniteLattice([L.labels[r] for r in reps], join == np.arange(len(reps)),
                      meet, join, name=name, covers=covers)
    return Q, Homomorphism._trusted(L, Q, block_of)


# --- backtracking search ---

def _assignments(n, candidates, fits, budget, what, find_all=False):
    """Injective assignments a[0..n-1], by backtracking on an explicit stack.

    Position i tries candidates(i, a) in order, a holding the choices at
    positions 0..i-1.  A candidate already used is skipped and not counted;
    every other one counts one step against `budget`, is placed last in a,
    and is kept if fits(a) holds.  Returns the first assignment or, with
    find_all, every one, in lexicographic order of the candidates'
    positions.  More than `budget` steps raise BudgetExceeded.
    """
    if not n:
        return [[]]
    out, a, used = [], [], set()
    stack = [iter(candidates(0, a))]
    steps = 0
    while stack:
        for c in stack[-1]:
            if c in used:
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"{what} search budget exhausted")
            a.append(c)
            if fits(a):
                break
            a.pop()
        else:                       # position len(a) is exhausted: back up
            stack.pop()
            if a:
                used.discard(a.pop())
            continue
        if len(a) == n:
            out.append(list(a))
            if not find_all:
                break
            a.pop()
        else:
            used.add(c)
            stack.append(iter(candidates(len(a), a)))
    return out


# --- isomorphism ---

def _iso_backtrack(K, L, find_all=False):
    if K.n != L.n:
        return []
    for M in (K, L):
        _require_dense(M, "isomorphism search needs")
    sigK = K.iso_signature()
    sigL = L.iso_signature()
    if sorted(sigK) != sorted(sigL):
        return []
    n = K.n
    cands = [[j for j in range(n) if sigL[j] == sigK[i]] for i in range(n)]
    # the order as bytes rows: up[x][y] is x <= y, down[x][y] is y <= x
    up_K, up_L = ([r.tobytes() for r in M._leq] for M in (K, L))
    down_K, down_L = ([r.tobytes() for r in M._leq.T] for M in (K, L))

    def fits(a):
        # the order between the last position and every earlier one is
        # preserved and reflected
        i, j = len(a) - 1, a[-1]
        return (bytes(map(up_L[j].__getitem__, a)) == up_K[i][:i + 1]
                and bytes(map(down_L[j].__getitem__, a)) == down_K[i][:i + 1])

    return _assignments(n, lambda i, a: cands[i], fits, ISO_SEARCH_BUDGET,
                        "isomorphism", find_all)


def is_isomorphic(K, L) -> Optional[Homomorphism]:
    """Order isomorphism K -> L if one exists, else None.

    The witness is deterministic: the lexicographically least image sequence
    under the canonical element orders.
    """
    found = _iso_backtrack(K, L, find_all=False)
    if not found:
        return None
    return Homomorphism._trusted(K, L, found[0])


def all_isomorphisms(K, L):
    return [Homomorphism._trusted(K, L, a) for a in _iso_backtrack(K, L, find_all=True)]


# --- chains ---

def maximal_chains(L):
    """All maximal chains bottom-to-top, as label tuples, in cover order."""
    ups = {}
    for i, j in L.covers:
        ups.setdefault(i, []).append(j)
    out = []
    # an explicit stack, so that long chains stay clear of the recursion
    # limit; upper covers are pushed in reverse to pop in increasing order
    stack = [(L.bottom_i,)]
    while stack:
        path = stack.pop()
        nxt = ups.get(path[-1])
        if nxt:
            stack.extend(path + (j,) for j in reversed(nxt))
        else:
            out.append(tuple(L.labels[k] for k in path))
    return out


def spanning_chains(L, lengths, members=None):
    """All chains through 0 and 1 whose length (#elements - 1) is in `lengths`,
    with every element among the indices `members` (default: all of L).

    Chains are arbitrary totally ordered subsets; the intermediate steps need
    not be covers.  Reported bottom-to-top, ordered by length and then by
    index sequence.
    """
    lengths = set(lengths)
    if not lengths:
        return []
    longest = max(lengths)
    members = range(L.n) if members is None else members
    out = []
    stack = [(L.bottom_i,)]
    while stack:
        path = stack.pop()
        cur = path[-1]
        if cur == L.top_i:
            if len(path) - 1 in lengths:
                out.append(path)
        elif len(path) - 1 < longest:
            stack.extend(path + (j,) for j in members if j != cur and L.leq_i(cur, j))
    out.sort(key=lambda c: (len(c), c))
    return [tuple(L.labels[k] for k in c) for c in out]


def chain_order(C):
    """The labels of the chain lattice C from bottom to top; CritlatError
    when C is not a chain."""
    order = sorted(range(C.n), key=lambda i: int(C.heights[i]))
    for a, b in zip(order, order[1:]):
        if not C.leq_i(a, b):
            raise CritlatError(f"{C!r} is not a chain lattice")
    return [C.labels[i] for i in order]


# --- distributivity ---

def _arrows(L, max_cells=None):
    """(ji, lower, up, down) for a dense L: its join-irreducible elements in
    index order, the lower cover k_* of each, and the arrow relations over
    its meet-irreducible elements x, up[a, x] when ji[a] up-arrow x (j not
    <= x, j <= x*) and down[b, x] when x down-arrow ji[b] (k_* <= x, k not
    <= x).  Refuses when |J(L)| * |L| is above max_cells."""
    ups, downs = _neighbours(L.n, L.covers)
    ji = np.array([j for j, d in enumerate(downs) if len(d) == 1], dtype=np.intp)
    if max_cells is not None and len(ji) * L.n > max_cells:
        raise BudgetExceeded(
            f"|J(L)| * |L| = {len(ji)} * {L.n} exceeds the J(Con L) budget {max_cells}")
    lower = np.array([downs[j][0] for j in ji.tolist()], dtype=np.intp)
    mi = [x for x, u in enumerate(ups) if len(u) == 1]
    # whole rows first: gathering rows, then columns, is the fast order
    rows = L._leq[ji]
    outside = ~rows[:, mi]
    up = outside & rows[:, [ups[x][0] for x in mi]]
    down = outside & L._leq[lower][:, mi]
    return ji, lower, up, down


def _dependency(L, max_cells=None):
    """(ji, lower, D) for a dense L (_arrows), D[a, b] when ji[a] D ji[b]:
    j != k and some x has k_* <= x, j not <= x and j <= k v x.  x can be
    taken meet-irreducible, so D is the Boolean product of the arrow
    relations j up-arrow x and x down-arrow k (README, "How Con is
    computed").  Refuses, before that product, when |J(L)| * |L| is above
    max_cells."""
    ji, lower, up, down = _arrows(L, max_cells)
    # exact: the float32 sums count at most |L| arrows
    D = up.astype(np.float32) @ down.T.astype(np.float32) > 0
    D.flat[::len(D) + 1] = False
    return ji, lower, D


def _dependency_ends(L):
    """(out, into) for a dense L: which rows and which columns of D
    (_dependency) hold an edge, without forming D.  j D k for some k != j
    iff j up-arrow x for some x with a down-arrow to a k other than j, that
    is more down-arrows than j's own; columns dually."""
    up, down = _arrows(L)[2:]
    out = (up & (down.sum(axis=0) > down)).any(axis=1)
    into = (down & (up.sum(axis=0) > up)).any(axis=1)
    return out, into


def _is_modular(L):
    """Whether x <= z implies x v (y ^ z) = (x v y) ^ z throughout a dense L.

    A lattice of finite length is modular iff its height function is a
    valuation, h(x) + h(y) = h(x ^ y) + h(x v y) (Birkhoff, Lattice Theory,
    ch. X: a strictly monotone valuation forces the modular law, and a
    modular lattice is graded by h).  Read in row chunks of at most about
    _SEARCH_CHUNK bytes, stopping at the first failing chunk.
    """
    h = L.heights
    step = max(1, _SEARCH_CHUNK // (16 * L.n))  # four int32 temporaries per cell
    for lo in range(0, L.n, step):
        rows = slice(lo, lo + step)
        if (h[rows, None] + h != h[L._meet[rows]] + h[L._join[rows]]).any():
            return False
    return True


def is_distributive(L):
    """Whether x∧(y∨z) = (x∧y)∨(x∧z) throughout L; returns (bool, witness).

    A dense L is distributive iff its dependency relation D is empty; else
    the witness is (j, k, x), j D k the first pair and x the first element
    with k_* <= x, j not <= x and j <= k v x, in index order (README).  A
    lazy product is distributive iff every factor is; a failing triple of a
    factor, the other coordinates at their bottoms, fails in the product.
    """
    if isinstance(L, ProductLattice):
        for k, f in enumerate(L.factors):
            ok, w = is_distributive(f)
            if not ok:
                bottoms = [g.bottom_i for g in L.factors]

                def lift(x):
                    coords = bottoms[:k] + [f.index(x)] + bottoms[k + 1:]
                    return L.labels[product_index(L.sizes, coords)]
                return False, tuple(lift(x) for x in w)
        return True, None
    ji, lower, D = _dependency(L)
    if not D.any():
        return True, None
    a, b = np.argwhere(D)[0]
    j, k, le = ji[a], ji[b], L._leq
    x = np.flatnonzero(le[lower[b]] & ~le[j] & le[j, L._join[k]])[0]
    return False, (L.labels[j], L.labels[k], L.labels[x])


# --- partial lattices ---

class PartialLattice:
    """The partial sublattice that a lattice L induces on a subset: the
    subset's elements in L's order, with a meet or join defined exactly when
    its value in L lies in the subset (all of L when subset is None).

    meets and joins map position pairs, in both orders, to positions.  A
    bounded partial lattice keeps L's 0 and 1 as bottom_i and top_i, so the
    subset must contain both; bounded=False leaves them unmarked.
    """

    __slots__ = ("labels", "_index", "meets", "joins", "bottom_i", "top_i")

    def __init__(self, L, subset=None, bounded=True):
        idxs = range(L.n) if subset is None else sorted({L.index(x) for x in subset})
        pos = {g: k for k, g in enumerate(idxs)}
        if bounded and (L.bottom_i not in pos or L.top_i not in pos):
            raise NotSpanning("subset must contain both bounds")
        self.labels = tuple(L.labels[i] for i in idxs)
        self._index = {lab: k for k, lab in enumerate(self.labels)}
        self.meets, self.joins = {}, {}
        for a, ia in enumerate(idxs):
            for b, ib in enumerate(idxs):
                if (v := pos.get(L.meet_i(ia, ib))) is not None:
                    self.meets[(a, b)] = v
                if (v := pos.get(L.join_i(ia, ib))) is not None:
                    self.joins[(a, b)] = v
        self.bottom_i = pos[L.bottom_i] if bounded else None
        self.top_i = pos[L.top_i] if bounded else None

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
        return self.bottom_i is not None

    def __repr__(self):
        return f"<PartialLattice {self.n} elements>"


def embed_partial(K: PartialLattice, L) -> Optional[dict]:
    """Injective map K -> L preserving every defined meet/join, or None.

    Bounds of K map to bounds of L when K is bounded.  The search is
    exhaustive backtracking; the first (lexicographically least) witness is
    returned as a label dict.
    """
    n, m = K.n, L.n
    if n > m:
        return None
    meet, join = L.meet_i, L.join_i
    # the meet and the join triples to check once their last participant is
    # placed, as plain int triples (which the garbage collector stops tracking)
    meets, joins = [[] for _ in range(n)], [[] for _ in range(n)]
    for at, table in ((meets, K.meets), (joins, K.joins)):
        for (i, j), k in table.items():
            if i <= j:
                at[max(i, j, k)].append((i, j, k))
    # a bounded K sends 0 to 0 and 1 to 1, so a one-element K needs 0 = 1 in L
    if K.bounded and K.bottom_i == K.top_i and L.bottom_i != L.top_i:
        return None
    forced = {K.top_i: [L.top_i], K.bottom_i: [L.bottom_i]} if K.bounded else {}

    def fits(a):
        p = len(a) - 1
        for i, j, k in meets[p]:
            if meet(a[i], a[j]) != a[k]:
                return False
        for i, j, k in joins[p]:
            if join(a[i], a[j]) != a[k]:
                return False
        return True

    found = _assignments(n, lambda i, a: forced.get(i, range(m)), fits,
                         EMBED_NODE_BUDGET, "partial embedding")
    return {K.labels[i]: L.labels[c] for i, c in enumerate(found[0])} if found else None


# --- builtin generators ---

_BUILTIN_LEAST_N = {"chain": 1, "M": 3, "bool": 1}


def is_builtin(name: str) -> bool:
    """Whether name is 2, N5, F22 or starts with chain:, M: or bool:, and so
    is read by builtin and never as a file (builtin may refuse its n)."""
    kind, colon, _ = name.partition(":")
    return name in ("2", "N5", "F22") or bool(colon) and kind in _BUILTIN_LEAST_N


def builtin(name: str):
    """Builtin lattices by name: 2, chain:n (n>=1), M:n (n>=3), N5, bool:n
    (n>=1), F22.  A malformed or too small n raises FormatError."""
    if not is_builtin(name):
        raise FormatError(f"unknown builtin lattice {name!r}")
    kind, colon, arg = name.partition(":")
    if colon:
        try:
            n = int(arg)
        except ValueError:
            raise FormatError(f"{name!r}: n must be an integer") from None
        if n < _BUILTIN_LEAST_N[kind]:
            raise FormatError(f"{name!r}: {kind}:n needs n >= {_BUILTIN_LEAST_N[kind]}")
    if name == "2" or kind == "bool" and n == 1:
        return validate_lattice(["0", "1"], [("0", "1")], name=name)
    if kind == "chain":
        labels = ["0"] + [f"c{k}" for k in range(1, n)] + ["1"]
        return validate_lattice(labels, list(zip(labels, labels[1:])), name=name)
    if kind == "M":
        labels = ["0"] + [f"x{k}" for k in range(1, n + 1)] + ["1"]
        covers = [("0", f"x{k}") for k in range(1, n + 1)] + \
                 [(f"x{k}", "1") for k in range(1, n + 1)]
        return validate_lattice(labels, covers, name=name)
    if name == "N5":
        labels = ["0", "x1", "x2", "x3", "1"]
        covers = [("0", "x1"), ("x1", "x2"), ("x2", "1"), ("0", "x3"), ("x3", "1")]
        return validate_lattice(labels, covers, name="N5")
    if kind == "bool":
        return _product([builtin("2")] * n, name)
    # F22, the one name left
    labels = ["0", "x1^x2", "x1", "x2", "x1vx2", "1"]
    covers = [("0", "x1^x2"), ("x1^x2", "x1"), ("x1^x2", "x2"),
              ("x1", "x1vx2"), ("x2", "x1vx2"), ("x1vx2", "1")]
    return validate_lattice(labels, covers, name="F22")


# --- serialization ---

def lattice_to_json(L) -> dict:
    return {
        "name": L.name or "",
        "elements": list(L.labels),
        "covers": [[L.labels[i], L.labels[j]] for i, j in L.covers],
    }


def lattice_from_json(obj) -> FiniteLattice:
    """The lattice of a JSON object whose "elements" is an array of strings,
    "covers" an array of [lower, upper] string pairs and "name", if given, a
    string or null; any other shape is a FormatError."""
    if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
        raise FormatError("bad lattice object: it needs \"elements\" and \"covers\"")
    elements, covers = obj["elements"], obj["covers"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise FormatError("bad lattice object: \"elements\" is not an array of strings")
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(isinstance(e, str) for e in c)
            for c in covers):
        raise FormatError("bad lattice object: \"covers\" is not an array of string pairs")
    if not isinstance(obj.get("name"), (str, type(None))):
        raise FormatError("bad lattice object: \"name\" is not a string")
    return validate_lattice(elements, [tuple(c) for c in covers], name=obj.get("name") or None)


def load_json(path):
    """The JSON value in a file; FormatError when it is not valid UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None


def load_lattice(path) -> FiniteLattice:
    return lattice_from_json(load_json(path))


def save_lattice(L, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lattice_to_json(L), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dot_string(text) -> str:
    """text as a quoted DOT string, backslashes and double quotes escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_dot(L) -> str:
    """Hasse diagram in DOT: one node per element, one edge per cover,
    elements of equal height share a rank."""
    lines = [f'digraph {_dot_string(L.name or "lattice")} {{',
             "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, lab in enumerate(L.labels):
        lines.append(f'  n{i} [label={_dot_string(lab)}];')
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
