"""Seeded inputs, items and answer checks of the three workloads.

An item is one timed call or pipeline into critlat's public functions.  All
lattice objects an item uses are built fresh for it during set-up, so a
cache held on an object (such as iso_signature) only hits within one item;
items share content, never objects.  Items are generated in blocks of fixed
composition, shuffled inside the block, so that every run sees the same mix
of item kinds whatever its seed and length.

Each item has a check that does not trust critlat: answers are compared
with values fixed by theory, and witnesses are replayed with the reference
order theory in oracle.py.  Calls refused with BudgetExceeded or
SizeCapExceeded are counted, not checked; the refused items named below
stay in the corpus so that lifting a cap shows up as a drop in refused_frac.
"""

from __future__ import annotations

import itertools

import numpy as np

import critlat as cl
from critlat.critpoint import AT_MOST_ALEPH2, INFINITE
from critlat.errors import CycleDetected, NotALattice

from oracle import (
    Order,
    check_embedding,
    check_hs_witness,
    check_order_iso,
    check_same_lattice,
    expect,
    lattice_order,
)


class Item:
    """run() is timed; check(result) raises WrongAnswer on a wrong answer."""

    __slots__ = ("kind", "run", "check", "l_key")

    def __init__(self, kind, run, check, l_key=None):
        self.kind, self.run, self.check, self.l_key = kind, run, check, l_key


def _label_covers(L):
    return [(L.labels[i], L.labels[j]) for i, j in L.covers]


def _fresh(labels, covers):
    return cl.validate_lattice(labels, covers)


# --- decide -----------------------------------------------------------------
#
# Why: this is the paper's decision itself.  crit_gate drives variety, which
# makes thousands of small con_lattice calls, quotients and sublattice
# constructions (_from_order on a few elements) per item; the slow tail is
# HS search over a chain-like L.  No diagrams or liftings run.
#
# Theory fixes every answer.  A bounded sublattice S of N5^a x 2^b generates
# a subvariety of Var N5, which does not contain M3 (nor does its dual, N5
# being self-dual); a bounded sublattice of M3^a x 2^b is modular, so its
# variety lies in Var M3 and misses N5.

DECIDE_PRODUCTS = (("N5", "2"), ("N5", "N5"), ("M:3", "2"), ("M:3", "M:3"))
# Each block takes one heavy and one light builtin pair.  The heavy pairs
# (HS search over a chain-like or Boolean L) cost about what the 90th
# percentile of the random items does, which keeps p90_ms off a sparse part
# of the latency distribution.
HEAVY_PAIRS = (
    ("M:3", "chain:5", AT_MOST_ALEPH2),  # HS search over a chain-like L
    ("N5", "bool:3", AT_MOST_ALEPH2),   # distributive L, non-distributive K
)
LIGHT_PAIRS = (
    ("M:4", "M:3", AT_MOST_ALEPH2),     # M4 is not in HS(M3)
    ("M:3", "M:4", INFINITE),           # M3 is a sublattice of M4
    ("N5", "F22", AT_MOST_ALEPH2),
    ("F22", "N5", INFINITE),            # distributive K lies in every variety
)

def _random_sublattice(rng, P, size):
    """Bounded sublattice of P with `size` elements, closed from 3 or 4
    random generators; returned as (labels, covers)."""
    for _ in range(10_000):
        gens = rng.sample(P.labels, rng.randint(3, 4))
        S, _ = cl.subuniverse_closure(P, gens, include_bounds=True)
        if S.n == size:
            return S.labels, _label_covers(S)
    raise RuntimeError(f"no bounded sublattice of size {size} in {P!r}")


def _check_certificates(L, want):
    def check(v):
        expect(v.verdict == want, f"verdict {v.verdict}, expected {want}")
        expect((v.verdict == INFINITE) == (v.contain_plain or v.contain_dual),
               "verdict disagrees with its containment flags")
        ref = lattice_order(L)
        for cert, ambient in ((v.cert_plain, ref), (v.cert_dual, ref.dual())):
            if not cert.holds:
                continue
            expect(len(cert.witnesses) == len(cert.si_list),
                   "certificate lacks a witness per SI quotient")
            for w, s in zip(cert.witnesses, cert.si_list):
                check_hs_witness(ambient, w, lattice_order(s.lattice))
    return check


def _decide_item(kind, K, L, want):
    return Item(kind, lambda: cl.crit_gate(K, L), _check_certificates(L, want),
                l_key=(L.labels, L.covers))


def decide(rng, first_block, blocks):
    prods = [cl.product(cl.builtin(a), cl.builtin(b)) for a, b in DECIDE_PRODUCTS]
    n5x2_cover = (prods[0].labels, _label_covers(prods[0]))
    items = []
    for b in range(first_block, first_block + blocks):
        block = []
        for p, ((gen, _), P) in enumerate(zip(DECIDE_PRODUCTS, prods)):
            other = "M:3" if gen == "N5" else "N5"
            labels, covers = _random_sublattice(rng, P, 5 + (b + p) % 4)
            block.append(_decide_item("random", _fresh(labels, covers),
                                      cl.builtin(gen), INFINITE))
            block.append(_decide_item("random", cl.builtin(other),
                                      _fresh(labels, covers), AT_MOST_ALEPH2))
        for k, l, want in (HEAVY_PAIRS[b % 2], LIGHT_PAIRS[b % 4]):
            block.append(_decide_item("builtin", cl.builtin(k), cl.builtin(l), want))
        # refused today: |K| = 9 (M7) or 10 (all of N5 x 2) is over the SI
        # budget of 8
        if b % 2:
            block.append(_decide_item("over-budget", cl.builtin("M:7"),
                                      cl.builtin("M:3"), AT_MOST_ALEPH2))
        else:
            block.append(_decide_item("over-budget", _fresh(*n5x2_cover),
                                      cl.builtin("N5"), INFINITE))
        rng.shuffle(block)
        items.extend(block)
    return items


# --- lift -------------------------------------------------------------------
#
# Why: this is the paper's construction: build a diagram, lift its Con image,
# verify the lifting, then extract the embedding or check the directing
# property.  The load is congruence closures and Conc maps on mid-size nodes
# (the length-3 directing diagram over M3 has 64- and 125-element nodes); no
# variety code runs.
#
# The length-3 directing diagram over M3 costs seconds, so it runs once, at
# the head of every run, rather than in the repeated blocks.  The one over N5
# (a node with 512 congruences, tens of seconds) is left out: a single item
# would take most of a run.

C1, C2 = ("0", "x1", "1"), ("0", "x2", "1")
LIFT_SIZES = (5, 5, 5, 5, 6, 6, 7)


def _chain_item(S, S_order, dualize):
    def run():
        D, _ = cl.chain_diagram_of_partial(S, S.labels)
        lift = cl.identity_lifting(D)
        report = cl.verify_lifting(lift)
        if dualize:
            lift = cl.dual_lifting(lift)
            h, emb = cl.extract_embedding_auto(lift, S.labels)
        else:
            h, emb = cl.extract_embedding(lift, S.labels)
        return report, lift, h, emb

    def check(out):
        report, lift, h, emb = out
        expect(report.ok, f"lifting fails verification: {report.first_failure}")
        expect(emb.ok and emb.injective, "embedding report is not ok")
        expect(emb.dualized == dualize, "embedding took the wrong orientation")
        top = lift.source.lattices[cl.TOP]
        # the dualized embedding lands in the dual of the given top node
        top_order = lattice_order(top)
        check_embedding(h, S_order, top_order.dual() if dualize else top_order)

    return Item("chain-diagram", run, check)


def _directing_item(gen, c3):
    def run():
        dd = cl.directing_diagram(gen, C1, C2, c3)
        lift = cl.identity_lifting(dd)
        return cl.verify_lifting(lift), cl.check_directing_property(lift, C1, C2, c3)

    def check(out):
        report, (holds, counterexample) = out
        expect(report.ok, f"lifting fails verification: {report.first_failure}")
        expect(holds and counterexample is None, "directing property fails")

    return Item("directing", run, check)


def _glued_item(L, gen):
    # refused today: the pair nodes have 16 384 elements, over the Conc budget
    def run():
        g = cl.glued_diagram(L, L.labels, gen)
        return cl.verify_lifting(cl.identity_lifting(g.diagram))

    def check(report):
        expect(report.ok, f"lifting fails verification: {report.first_failure}")

    return Item("glued", run, check)


def lift(rng, first_block, blocks):
    prods = [cl.product(cl.builtin(a), cl.builtin(b)) for a, b in DECIDE_PRODUCTS]
    items = []
    if first_block == 0:
        items.append(_directing_item(cl.builtin("M:3"), ("0", "x1", "x2", "1")))
    for b in range(first_block, first_block + blocks):
        block = []
        for k, size in enumerate(LIFT_SIZES):
            labels, covers = _random_sublattice(rng, prods[(b + k) % 4], size)
            block.append(_chain_item(_fresh(labels, covers),
                                     Order.from_covers(labels, covers),
                                     dualize=bool((b + k) % 2)))
        # one heavy chain diagram per block: a random sublattice of size 8,
        # or Boolean B3, whose fixed cost sits near the 90th percentile
        if b % 2:
            labels, covers = _random_sublattice(rng, prods[(b // 2) % 4], 8)
            S = _fresh(labels, covers)
        else:
            S = cl.builtin("bool:3")
        block.append(_chain_item(S, lattice_order(S), dualize=bool(b % 4 < 2)))
        for gen in ("M:3", "N5"):
            for c3 in (("0", "x3", "1"), ("0", "y1", "1")):
                block.append(_directing_item(cl.builtin(gen), c3))
        if not b % 2:
            block.append(_glued_item(cl.builtin("M:3"), cl.builtin("M:3")))
        rng.shuffle(block)
        items.extend(block)
    return items


# --- build ------------------------------------------------------------------
#
# Why: the lattice layer alone, through large constructions: validating
# shuffled cover lists (the O(n^2) Python loop of _from_order and the
# closure by matrix squaring), rejecting non-lattices and cycles, a JSON
# round trip, dual, isomorphism search and the distributivity test.  No
# congruence or variety code runs, so a congruence change should show no
# effect here.  The reference orders come from each shape's definition,
# computed by benchmark code, not by critlat.

FACTORS = {   # covers of small factors over elements 0..n-1, and distributivity
    "2": (2, [(0, 1)], True),
    "N5": (5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], False),
    "M3": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], False),
    "F22": (6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], True),
    "C4": (4, [(0, 1), (1, 2), (2, 3)], True),
}
BIG_PRODUCTS = (("2",) * 8, ("N5", "M3") + ("2",) * 3, ("F22",) + ("2",) * 5,
                ("M3", "C4") + ("2",) * 3, ("N5",) + ("2",) * 5, ("F22", "N5", "C4"))
MID_PRODUCTS = (("2",) * 6, ("N5", "2", "2", "2"), ("M3", "C4", "2", "2"),
                ("F22", "2", "2", "2"), ("N5", "M3", "2"))


class Shape:
    """An abstract lattice on elements 0..n-1: covers, order, distributivity."""

    def __init__(self, covers, le, distributive):
        self.n, self.covers, self.le, self.distributive = len(le), covers, le, distributive


def chain_shape(n):
    return Shape([(i, i + 1) for i in range(n - 1)],
                 np.triu(np.ones((n, n), dtype=bool)), True)


def m_shape(atoms):
    top = atoms + 1
    le = np.eye(top + 1, dtype=bool)
    le[0, :] = le[:, top] = True
    covers = [(0, a) for a in range(1, top)] + [(a, top) for a in range(1, top)]
    return Shape(covers, le, atoms < 3)


def product_shape(names):
    factors = [FACTORS[nm] for nm in names]
    coords = list(itertools.product(*[range(f[0]) for f in factors]))
    index = {c: i for i, c in enumerate(coords)}
    covers = []
    for c in coords:
        for k, (_, fcov, _) in enumerate(factors):
            for lo, hi in fcov:
                if c[k] == lo:
                    covers.append((index[c], index[c[:k] + (hi,) + c[k + 1:]]))
    # the product order is componentwise; row-major coordinates match kron
    le = np.ones((1, 1), dtype=bool)
    for size, fcov, _ in factors:
        le = np.kron(le, Order.from_covers(range(size), fcov).le)
    return Shape(covers, le, all(f[2] for f in factors))


def present(rng, shape, extra=(), shuffle=True):
    """A seeded presentation of the shape: fresh labels, shuffled element and
    cover lists.  Returns (labels, covers, reference order)."""
    names = [f"v{k}" for k in rng.sample(range(10 * shape.n), shape.n)]
    labels = list(names)
    if shuffle:
        rng.shuffle(labels)
    covers = [(names[i], names[j]) for i, j in list(shape.covers) + list(extra)]
    rng.shuffle(covers)
    return labels, covers, Order(names, shape.le)


def _validate_item(labels, covers, ref):
    return Item("validate", lambda: cl.validate_lattice(labels, covers),
                lambda L: check_same_lattice(L, ref))


def _invalid_item(rng, shape, cyclic):
    n = shape.n
    if cyclic:
        # an edge from the top back into the lattice closes a cycle
        extra, error = [(n - 1, rng.randrange(n - 1))], CycleDetected
    else:
        # two new maximal elements above the top have no join
        le = np.zeros((n + 2, n + 2), dtype=bool)
        shape = Shape(shape.covers, le, False)
        extra, error = [(n - 1, n), (n - 1, n + 1)], NotALattice
    labels, covers, _ = present(rng, shape, extra)

    def run():
        try:
            cl.validate_lattice(labels, covers)
        except error as exc:
            return exc
        return None

    return Item("invalid", run,
                lambda exc: expect(exc is not None, f"{error.__name__} not raised"))


def _json_item(L, ref):
    def check(L2):
        expect(L2.labels == L.labels, "JSON round trip changed the labels")
        check_same_lattice(L2, ref)

    return Item("json", lambda: cl.lattice_from_json(cl.lattice_to_json(L)), check)


def _dual_item(L, ref):
    def run():
        D = cl.dual(L)
        return D, cl.dual(D)

    def check(out):
        D, DD = out
        expect(D.labels == L.labels and DD.labels == L.labels, "dual changed the labels")
        expect({(D.labels[i], D.labels[j]) for i, j in D.covers}
               == {(b, a) for a, b in ref.covers()}, "dual covers are not reversed")
        expect({(DD.labels[i], DD.labels[j]) for i, j in DD.covers} == ref.covers(),
               "dual(dual(L)) differs from L")

    return Item("dual", run, check)


def _iso_item(K, K_ref, L, L_ref, found):
    def check(h):
        if not found:
            expect(h is None, "isomorphism reported between non-isomorphic lattices")
            return
        expect(h is not None, "isomorphism to a shuffled copy not found")
        check_order_iso(K_ref, L_ref, h.as_label_dict())

    return Item("isomorphic" if found else "non-isomorphic",
                lambda: cl.is_isomorphic(K, L), check)


def _distributive_item(L, ref, want):
    def check(out):
        ok, witness = out
        expect(ok == want, f"is_distributive said {ok}, expected {want}")
        if not ok:
            x, y, z = (ref.index[w] for w in witness)
            m, j = ref.meet_table(), ref.join_table()
            expect(m[x, j[y, z]] != j[m[x, y], m[x, z]], "witness triple is distributive")

    return Item("distributive", lambda: cl.is_distributive(L), check)


def _cap_item(factors):
    # refused today: 9^4 = 6561 elements is over the product cap of 4096
    want = 1
    for f in factors:
        want *= f.n
    return Item("product-cap", lambda: cl.product(*factors),
                lambda P: expect(P.n == want, "product has the wrong size"))


def _non_isomorphic(shape):
    """A lattice of the same size with a different cover count."""
    if len(shape.covers) == shape.n - 1:          # a chain: use M_{n-2}
        return m_shape(shape.n - 2)
    return chain_shape(shape.n)


def build(rng, first_block, blocks):
    def mid():
        if rng.random() < 0.5:
            return product_shape(MID_PRODUCTS[rng.randrange(len(MID_PRODUCTS))])
        return chain_shape(rng.randint(60, 90))

    def fresh(shape, shuffle=True):
        labels, covers, ref = present(rng, shape, shuffle=shuffle)
        return cl.validate_lattice(labels, covers), ref

    # Latency bands per block: four quick queries, two small builds (JSON,
    # M_n), three medium ones (product, invalid, large M_n) and two long
    # chains, so that the median and the 90th percentile fall inside a band
    # rather than on the gap between two.
    items = []
    for b in range(first_block, first_block + blocks):
        prod = product_shape(BIG_PRODUCTS[b % len(BIG_PRODUCTS)])
        big = (chain_shape(rng.randint(300, 400)), chain_shape(rng.randint(300, 400)),
               prod, m_shape(rng.randint(200, 300)), m_shape(rng.randint(60, 80)))
        block = [_validate_item(*present(rng, s)) for s in big]
        block.append(_invalid_item(rng, prod, cyclic=bool(b % 2)))
        block.append(_json_item(*fresh(mid())))
        block.append(_dual_item(*fresh(mid())))
        shape = mid()
        # K keeps the shape's bottom-up element order: with both sides shuffled
        # the backtracking search can run into its step budget (tens of
        # seconds on 2^6), which would swamp the run
        block.append(_iso_item(*fresh(shape, shuffle=False), *fresh(shape), found=True))
        block.append(_iso_item(*fresh(shape), *fresh(_non_isomorphic(shape)), found=False))
        shape = mid()
        block.append(_distributive_item(*fresh(shape), shape.distributive))
        block.append(_cap_item([cl.builtin("M:7") for _ in range(4)]))
        rng.shuffle(block)
        items.extend(block)
    return items


WORKLOADS = {"decide": decide, "lift": lift, "build": build}
