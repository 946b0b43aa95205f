import itertools
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from critlat import lattice
from critlat.congruence import con_lattice
from critlat.errors import (
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
from critlat.lattice import (
    FiniteLattice,
    Homomorphism,
    PartialLattice,
    ProductLattice,
    all_isomorphisms,
    builtin,
    chain_order,
    dual,
    embed_partial,
    enumerate_subuniverses,
    is_distributive,
    is_isomorphic,
    lattice_dot,
    lattice_from_json,
    lattice_to_json,
    maximal_chains,
    product,
    product_projections,
    quotient,
    spanning_chains,
    subuniverse_closure,
    validate_lattice,
    _covers_of_order,
    _dependency,
    _dependency_ends,
    _heights_from_covers,
    _is_modular,
)

from oracles import (
    brute_isomorphic,
    brute_subuniverses,
    oracle_embed_partial,
    oracle_is_distributive,
    oracle_is_homomorphism,
    oracle_is_modular,
    oracle_tables_from_order,
    oracle_validate,
)


M3_COVERS = [("0", "x1"), ("0", "x2"), ("0", "x3"),
             ("x1", "1"), ("x2", "1"), ("x3", "1")]


class TestValidate:
    def test_m3_from_covers(self):
        L = validate_lattice(["0", "x1", "x2", "x3", "1"], M3_COVERS)
        assert L.bottom == "0" and L.top == "1"
        assert L.n == 5
        assert is_isomorphic(L, builtin("M:3")) is not None

    def test_one_element(self):
        L = validate_lattice(["*"], [])
        assert L.bottom == L.top == "*"

    def test_missing_join_rejected(self):
        with pytest.raises(NotALattice):
            validate_lattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            validate_lattice(["a", "a"], [])

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            validate_lattice(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(CycleDetected):
            validate_lattice(["a"], [("a", "a")])

    def test_unknown_cover_label(self):
        with pytest.raises(UnknownElement):
            validate_lattice(["a", "b"], [("a", "zz")])

    @pytest.mark.parametrize("name", ["N6", "chain", "2:", "N5:3", "one"])
    def test_unknown_builtin(self, name):
        with pytest.raises(FormatError, match="^unknown builtin lattice"):
            builtin(name)

    def test_redundant_covers_are_reduced(self):
        L = validate_lattice(["0", "m", "1"], [("0", "m"), ("m", "1"), ("0", "1")])
        assert L.covers == ((0, 1), (1, 2))


class TestMeetJoin:
    def test_m3_examples(self):
        M3 = builtin("M:3")
        assert M3.meet("x1", "x2") == "0"
        assert M3.join("x1", "x2") == "1"

    def test_idempotence_everywhere(self, corpus):
        for L in corpus:
            for x in L.labels:
                assert L.meet(x, x) == x and L.join(x, x) == x

    def test_square_table_against_componentwise_oracle(self):
        two = builtin("2")
        sq = product(two, two)
        for a, b in itertools.product(sq.labels, repeat=2):
            want_meet = two.meet(a[0], b[0]) + two.meet(a[1], b[1])
            want_join = two.join(a[0], b[0]) + two.join(a[1], b[1])
            assert sq.meet(a, b) == want_meet
            assert sq.join(a, b) == want_join
        assert sq.meet("01", "10") == "00"

    def test_laws_exhaustive_small(self, corpus):
        for L in corpus:
            if L.n > 8:
                continue
            for x, y in itertools.product(range(L.n), repeat=2):
                assert L.meet_i(x, L.join_i(x, y)) == x  # absorption
                assert L.join_i(x, L.meet_i(x, y)) == x
            for x, y, z in itertools.product(range(L.n), repeat=3):
                assert L.meet_i(x, L.meet_i(y, z)) == L.meet_i(L.meet_i(x, y), z)
                assert L.join_i(x, L.join_i(y, z)) == L.join_i(L.join_i(x, y), z)


def assert_oracle_tables(L, oracle):
    meet, join, covers, bottom, top, heights = oracle
    assert L._meet.dtype == L._join.dtype == np.int32
    assert (L._meet == meet).all() and (L._join == join).all()
    assert L.covers == covers
    assert (L.bottom_i, L.top_i) == (bottom, top)
    assert L.heights.tolist() == heights


def _random_congruence(L, data):
    from critlat.congruence import principal_congruence
    a, b = data.draw(st.sampled_from(L.labels)), data.draw(st.sampled_from(L.labels))
    return principal_congruence(L, a, b)


class TestTablesAgainstOracle:
    """_from_order and validate_lattice build the tables from the covers;
    quotients, sublattices and products read them off their source.  All
    must equal the pair loop."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_from_order_on_relabelled_lattices(self, corpus, data):
        L = data.draw(st.sampled_from(corpus))
        kind = data.draw(st.sampled_from(["relabel", "product", "quotient"]))
        if kind == "product":
            L = product(L, data.draw(st.sampled_from([K for K in corpus if K.n <= 5])))
        elif kind == "quotient":
            L, _ = quotient(L, _random_congruence(L, data))
        perm = data.draw(st.permutations(range(L.n)))
        leq = L._leq[np.ix_(perm, perm)]
        labels = [L.labels[p] for p in perm]
        chunk = data.draw(st.sampled_from([1, 200, lattice._SEARCH_CHUNK]))
        with mock.patch.object(lattice, "_SEARCH_CHUNK", chunk):
            got = FiniteLattice._from_order(labels, leq)
        assert_oracle_tables(got, oracle_tables_from_order(labels, leq))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_validate_on_random_cover_lists(self, data):
        # random posets (mostly not lattices), and with back edges cyclic ones:
        # the same tables, or the same NotALattice pair and kind, or the same
        # CycleDetected message
        n = data.draw(st.integers(1, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
        if pairs and data.draw(st.booleans()):
            edges += [(j, i) for i, j in data.draw(st.lists(st.sampled_from(pairs),
                                                            min_size=1, max_size=2))]
        names = data.draw(st.permutations([f"v{k}" for k in range(n)]))
        labels = data.draw(st.permutations(names))
        covers = [(names[i], names[j]) for i, j in edges]
        # row chunks of one or a few rows as well as the default size
        chunk = data.draw(st.sampled_from([1, 40, lattice._SEARCH_CHUNK]))
        with mock.patch.object(lattice, "_SEARCH_CHUNK", chunk):
            try:
                leq, want = oracle_validate(labels, covers)
            except (NotALattice, CycleDetected) as exc:
                with pytest.raises(type(exc)) as got:
                    validate_lattice(labels, covers)
                assert str(got.value) == str(exc)
                if isinstance(exc, NotALattice):
                    assert (got.value.pair, got.value.kind) == (exc.pair, exc.kind)
            else:
                L = validate_lattice(labels, covers)
                assert (L._leq == leq).all()
                assert_oracle_tables(L, want)

    @pytest.mark.parametrize("kind", ["maxima", "twin", "delete", "redundant"])
    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_validate_on_perturbed_products(self, corpus, kind, data):
        # dense products of 40 to 150 elements with one perturbation, so
        # that the failing pair, if any, may lie deep in the tables
        factors, size = [], 1
        while size < 40:
            factors.append(data.draw(st.sampled_from([K for K in corpus
                                                      if 2 <= K.n <= 150 // size])))
            size *= factors[-1].n
        P = product(*factors)
        labels = list(P.labels)
        covers = [(labels[i], labels[j]) for i, j in P.covers]
        if kind == "maxima":
            # two maximal elements above the top: no join of the two
            labels += ["t1", "t2"]
            covers += [(P.top, "t1"), (P.top, "t2")]
        elif kind == "twin":
            # a copy of an inner element with its lower and upper covers:
            # every pair keeps a common upper and lower bound
            e = data.draw(st.sampled_from([x for x in labels if x not in (P.bottom, P.top)]))
            labels.append("twin")
            covers += [(a, "twin") for a, b in covers if b == e]
            covers += [("twin", b) for a, b in covers if a == e]
        elif kind == "delete":
            covers.remove(data.draw(st.sampled_from(covers)))
        else:
            strict = [(labels[i], labels[j]) for i, j in zip(*np.nonzero(P._leq)) if i != j]
            covers.append(data.draw(st.sampled_from(sorted(set(strict) - set(covers)))))
        # shuffled by a drawn seed: permutations this long overrun the data
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        rng.shuffle(labels)
        rng.shuffle(covers)
        chunk = data.draw(st.sampled_from([1, 40, lattice._SEARCH_CHUNK]))
        with mock.patch.object(lattice, "_SEARCH_CHUNK", chunk):
            try:
                leq, want = oracle_validate(labels, covers)
            except NotALattice as exc:
                event(f"{kind}: no {exc.kind}")
                with pytest.raises(NotALattice) as got:
                    validate_lattice(labels, covers)
                assert str(got.value) == str(exc)
                assert (got.value.pair, got.value.kind) == (exc.pair, exc.kind)
            else:
                event(f"{kind}: a lattice")
                L = validate_lattice(labels, covers)
                assert (L._leq == leq).all()
                assert_oracle_tables(L, want)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_trusted_tables_match_the_search(self, corpus, data):
        L = data.draw(st.sampled_from(corpus))
        Q, _ = quotient(L, _random_congruence(L, data))
        S, incl = subuniverse_closure(L, data.draw(st.sets(st.sampled_from(L.labels),
                                                            min_size=1)))
        P = product(L, data.draw(st.sampled_from([K for K in corpus if K.n <= 4])))
        for M in (Q, S, P, dual(L)):
            assert_oracle_tables(M, oracle_tables_from_order(M.labels, M._leq))
        idx = incl.mapping
        assert (S._leq == L._leq[np.ix_(idx, idx)]).all()

    @pytest.mark.parametrize("chunk", [1, 40, lattice._SEARCH_CHUNK])
    def test_first_failing_pair_past_the_first_chunk(self, chunk):
        # row 0 (the bottom) has every join and meet; a and b have no join
        covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                  ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
        with mock.patch.object(lattice, "_SEARCH_CHUNK", chunk):
            with pytest.raises(NotALattice) as exc:
                validate_lattice(["0", "a", "b", "c", "d", "1"], covers)
        assert (exc.value.pair, exc.value.kind) == (("a", "b"), "join")

    def test_sublattice_needs_a_closed_index_set(self, named):
        N5 = named["N5"]
        with pytest.raises(NotASublattice):
            lattice._sublattice_from_indices(N5, [N5.index("x1"), N5.index("x3")])

    def test_product_of_ten_twos(self):
        # tables read off the factors, covers taken from the factors' covers
        P = product(*[builtin("2")] * 10)
        assert P.n == 1024 and len(P.covers) == 10 * 512
        assert P.height() == 10 and (P.bottom_i, P.top_i) == (0, 1023)
        assert P.join_i(1, 2) == 3 and P.meet_i(3, 6) == 2
        assert P.covers == ProductLattice([builtin("2")] * 10).covers


class TestDual:
    def test_chain_self_dual(self):
        c = builtin("chain:4")
        assert is_isomorphic(c, dual(c)) is not None

    def test_n5_self_dual_by_oracle(self):
        N5 = builtin("N5")
        assert brute_isomorphic(N5, dual(N5)) is not None

    def test_m3_self_dual_by_oracle(self):
        M3 = builtin("M:3")
        assert brute_isomorphic(M3, dual(M3)) is not None

    def test_involution_identical_covers(self, corpus):
        for L in corpus:
            assert dual(dual(L)).covers == L.covers

    def test_dual_swaps_operations(self, named):
        N5 = named["N5"]
        d = dual(N5)
        assert d.meet("x1", "x3") == N5.join("x1", "x3")
        assert d.bottom == N5.top

    def test_dual_of_a_product_keeps_its_factors(self, corpus, named):
        # the dual of a product is the product of the factors' duals: its
        # projections are P's index maps, homomorphisms onto those duals
        products = [L for L in corpus if L.factors] + [
            product(named["M:3"], named["2"]),
            product(named["N5"], named["chain:2"], named["M:3"]),
            product(product(named["2"], named["N5"]), named["M:4"])]
        assert len(products) > 3
        for P in products:
            D = dual(P)
            assert [f.covers for f in D.factors] == [dual(f).covers for f in P.factors]
            projections = product_projections(P)
            assert len(product_projections(D)) == len(projections)
            for hd, hp in zip(product_projections(D), projections):
                Homomorphism(D, hd.target, hd.mapping)
                assert np.array_equal(hd.mapping, hp.mapping)


class TestProduct:
    def test_two_squared_is_boolean(self):
        sq = product(builtin("2"), builtin("2"))
        b2 = builtin("bool:2")
        assert sq.labels == b2.labels and sq.covers == b2.covers

    def test_single_factor_identity(self):
        M3 = builtin("M:3")
        assert product(M3) is M3

    def test_cardinality(self):
        assert product(builtin("M:3"), builtin("N5")).n == 25

    def test_above_the_cap_is_lazy(self):
        # 5 * 5 * 4 * 6 * 2 * 2 * 2 = 4800 elements, past PRODUCT_CAP = 4096
        fs = [builtin(nm) for nm in ("M:3", "N5", "chain:3", "M:4", "2", "2", "2")]
        P = product(*fs)
        assert isinstance(P, ProductLattice) and P.n == 4800 > lattice.PRODUCT_CAP
        combos = itertools.product(*[f.labels for f in fs])
        assert P.labels == tuple("(" + ",".join(c) + ")" for c in combos)
        coords = np.array(lattice.product_coords(P.sizes, np.arange(P.n))).T
        # a cover raises one coordinate by a cover of its factor, and every
        # such step is a cover
        want = set()
        for i, c in enumerate(coords.tolist()):
            for k, f in enumerate(fs):
                for a, b in f.covers:
                    if c[k] == a:
                        up = c[:k] + [b] + c[k + 1:]
                        want.add((i, int(lattice.product_index(P.sizes, up))))
        assert sorted(want) == list(P.covers)
        assert P.heights.tolist() == [sum(int(f.heights[x]) for f, x in zip(fs, c))
                                      for c in coords.tolist()]
        assert P.height() == sum(f.height() for f in fs)
        assert not is_distributive(P)[0] and not is_distributive(fs[1])[0]
        chains = product(*[builtin(nm) for nm in ("chain:4", "chain:5", "chain:6", "chain:7",
                                                  "chain:8")])
        assert isinstance(chains, ProductLattice) and is_distributive(chains) == (True, None)

    def test_lazy_limit(self):
        # bool:18, 262 144 elements, is lazy; bool:19 (524 288) is past
        # the 500 000 of the lazy limit
        assert isinstance(builtin("bool:18"), ProductLattice)
        with pytest.raises(SizeCapExceeded, match="exceeds the lazy limit"):
            builtin("bool:19")

    def test_projections_are_surjective_bounded(self, named):
        P = product(named["M:3"], named["chain:2"])
        for h in product_projections(P):
            assert h.surjective and h.preserves_bounds
            h.validate()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_lazy_product_matches_dense(self, small_lattices, data):
        k = data.draw(st.integers(2, 3))
        pool = [L for L in small_lattices if L.n <= (6 if k == 2 else 5)]
        fs = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        dense = product(*fs)
        lazy = ProductLattice(fs)
        assert isinstance(dense, FiniteLattice) and isinstance(lazy, ProductLattice)
        assert dense.labels == lazy.labels
        for i, j in itertools.product(range(dense.n), repeat=2):
            assert dense.meet_i(i, j) == lazy.meet_i(i, j)
            assert dense.join_i(i, j) == lazy.join_i(i, j)
            assert dense.leq_i(i, j) == lazy.leq_i(i, j)
        assert dense.covers == lazy.covers
        assert (dense.heights == lazy.heights).all()
        for hd, hl in zip(product_projections(dense), product_projections(lazy)):
            assert hd.equal_map(hl)

    def test_lazy_product_indexes_its_labels_on_first_lookup(self):
        P = ProductLattice([builtin("M:3"), builtin("N5")])
        assert P._index is None
        assert [P.index(x) for x in P.labels] == list(range(P.n))
        with pytest.raises(UnknownElement):
            P.index("x9")

    @pytest.mark.parametrize("order", [("N5", "2"), ("2", "N5")])
    def test_lazy_distributivity_witness_lies_in_product(self, order):
        L = ProductLattice([builtin(nm) for nm in order])
        ok, witness = is_distributive(L)
        assert not ok and all(w in L.labels for w in witness)
        x, y, z = (L.index(w) for w in witness)
        assert L.meet_i(x, L.join_i(y, z)) != L.join_i(L.meet_i(x, y), L.meet_i(x, z))


class TestHomomorphismCheck:
    @pytest.mark.parametrize("source, target, mapping, message", [
        ("chain:5", "chain:5", [0, 1, 3, 2, 4, 5], "meet fails at (c2, c3)"),
        ("bool:2", "2", [0, 0, 0, 1], "join fails at (01, 10)"),
    ])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_row_chunks_report_the_same_first_failure(self, monkeypatch, chunk,
                                                      source, target, mapping, message):
        args = builtin(source), builtin(target), np.array(mapping)
        with pytest.raises(CritlatError, match=re.escape(message)):
            Homomorphism(*args)
        monkeypatch.setattr(lattice, "_HOM_CHUNK", chunk)
        with pytest.raises(CritlatError, match=re.escape(message)):
            Homomorphism(*args)

    def test_map_out_of_a_lazy_product_through_two_coordinates_is_decided(self):
        # the identity of 2 x 2 through a lazy copy depends on both
        # coordinates and is a homomorphism; sending 11 to 00 as well breaks
        # the meet of the axis map x -> h(x1): h(01 ^ 11) = h(01) = 01, but
        # h(01) ^ h(11) = 01 ^ 00 = 00
        sq = builtin("bool:2")
        lazy = ProductLattice([builtin("2"), builtin("2")])
        Homomorphism(lazy, sq, np.arange(4))
        Homomorphism(lazy, lazy, np.arange(4))
        with pytest.raises(CritlatError, match=re.escape("meet fails at (01, 11)")):
            Homomorphism(lazy, sq, [0, 1, 2, 0])

    @pytest.mark.parametrize("mapping", [
        [0.9, 1.9], [0, 3.5], ["0", "1"], [False, True], [[0], [1]], np.array([0, 2 ** 40]),
    ], ids=["floats", "float-in-range", "strings", "bools", "two-dimensional", "beyond-int32"])
    def test_malformed_mapping_is_refused_before_the_cast(self, mapping):
        # each of these, cast to int32 first, reads as a homomorphism 2 -> chain:3
        with pytest.raises(CritlatError):
            Homomorphism(builtin("2"), builtin("chain:3"), mapping)

    @pytest.mark.parametrize("label_map, message", [
        ({"0": "00"}, "the label map leaves out '1', an element of the source"),
        ({"0": "00", "1": "11", "x": "01"},
         "the label map maps 'x', not an element of the source"),
        ({"1": "11", "0": "00", 0: "01"},
         "the label map maps 0, not an element of the source"),
    ], ids=["missing", "extra", "non-string-key"])
    def test_label_map_not_keyed_by_exactly_the_source_is_refused(self, label_map, message):
        # the rule diagram_from_json applies to its maps
        with pytest.raises(CritlatError, match=f"^{re.escape(message)}$"):
            Homomorphism.from_labels(builtin("2"), builtin("bool:2"), label_map)
        f = Homomorphism.from_labels(builtin("2"), builtin("bool:2"), {"1": "11", "0": "00"})
        assert f.mapping.tolist() == [0, 3]

    def test_the_callers_array_is_copied(self):
        m = np.array([0, 3], dtype=np.int32)
        f = Homomorphism(builtin("2"), builtin("chain:3"), m)
        m[1] = 1
        assert f.mapping.tolist() == [0, 3] and not f.mapping.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_accepts_an_integer_mapping_iff_the_oracle_does(self, corpus, data):
        K, L = (data.draw(st.sampled_from([M for M in corpus if M.n <= 5])) for _ in range(2))
        values = st.integers(0, L.n - 1) if data.draw(st.booleans()) else st.integers(-1, L.n)
        mapping = data.draw(st.lists(values, min_size=K.n, max_size=K.n))
        want = (all(0 <= v < L.n for v in mapping)
                and oracle_is_homomorphism(Homomorphism._trusted(K, L, mapping)))
        dtype = data.draw(st.sampled_from([np.int8, np.int32, np.int64]))
        try:
            Homomorphism(K, L, np.array(mapping, dtype=dtype))
        except CritlatError:
            assert not want
        else:
            assert want


class TestSubuniverses:
    def test_closed_subset_is_fixed(self):
        M3 = builtin("M:3")
        sub, incl = subuniverse_closure(M3, ["0", "x1", "x2", "1"])
        assert sub.labels == ("0", "x1", "x2", "1")
        assert incl.injective

    def test_f22_generators(self):
        F = builtin("F22")
        sub, _ = subuniverse_closure(F, ["x1", "x2"])
        assert sub.labels == ("x1^x2", "x1", "x2", "x1vx2")
        with_bounds, _ = subuniverse_closure(F, ["x1", "x2"], include_bounds=True)
        assert with_bounds.labels == F.labels

    def test_bounds_closed(self):
        c3 = builtin("chain:3")
        sub, _ = subuniverse_closure(c3, ["0", "1"])
        assert sub.labels == ("0", "1")

    def test_enumerate_matches_brute_filter(self, named):
        for name in ("2", "chain:2", "M:3", "N5", "F22"):
            L = named[name]
            assert enumerate_subuniverses(L) == brute_subuniverses(L)

    def test_counts(self, named):
        assert len(enumerate_subuniverses(named["2"])) == 3
        assert len(enumerate_subuniverses(named["chain:2"])) == 7
        # every nonempty closed subset of M3, frozen from the brute filter
        assert len(enumerate_subuniverses(named["M:3"])) == 19

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_subuniverses(product(builtin("M:3"), builtin("chain:2")))

    def test_closure_refuses_a_lazy_product(self):
        P = ProductLattice([builtin("M:3"), builtin("2")])
        with pytest.raises(BudgetExceeded, match="^subuniverse closure needs a dense lattice"):
            subuniverse_closure(P, P.labels[:2])

    def test_enumeration_refuses_a_lazy_product(self):
        # 10 elements: within the enumeration bound
        P = ProductLattice([builtin("M:3"), builtin("2")])
        with pytest.raises(BudgetExceeded, match="^subuniverse enumeration needs a dense lattice"):
            enumerate_subuniverses(P)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_closure_operator_laws(self, named, data):
        L = data.draw(st.sampled_from(
            [named[k] for k in ("M:3", "N5", "F22", "bool:3", "chain:4")]))
        s = data.draw(st.sets(st.sampled_from(L.labels), min_size=1))
        t = data.draw(st.sets(st.sampled_from(L.labels), min_size=1))
        cs, _ = subuniverse_closure(L, s)
        assert s <= set(cs.labels)                      # extensive
        again, _ = subuniverse_closure(L, cs.labels)
        assert again.labels == cs.labels                # idempotent
        cu, _ = subuniverse_closure(L, s | t)
        assert set(cs.labels) <= set(cu.labels)         # monotone


class TestQuotient:
    def test_zero_congruence(self, named):
        from critlat.congruence import Congruence
        L = named["N5"]
        Q, proj = quotient(L, Congruence.zero(L))
        assert is_isomorphic(Q, L) is not None
        assert proj.injective

    def test_one_congruence(self, named):
        from critlat.congruence import Congruence
        L = named["N5"]
        Q, _ = quotient(L, Congruence.one(L))
        assert Q.n == 1

    def test_n5_collapse(self, named):
        from critlat.congruence import principal_congruence
        N5 = named["N5"]
        theta = principal_congruence(N5, "x1", "x2")
        assert theta.label_blocks() == [["0"], ["x1", "x2"], ["x3"], ["1"]]
        Q, proj = quotient(N5, theta)
        assert is_isomorphic(Q, builtin("bool:2")) is not None
        assert proj.surjective and proj.preserves_bounds

    def test_host_mismatch(self, named):
        from critlat.congruence import Congruence
        with pytest.raises(HostMismatch):
            quotient(named["M:3"], Congruence.zero(named["N5"]))

    def test_lazy_product_refused(self):
        from critlat.congruence import Congruence
        P = ProductLattice([builtin("M:3"), builtin("2")])
        with pytest.raises(BudgetExceeded, match="^quotient needs a dense lattice"):
            quotient(P, Congruence.zero(P))

    def test_inherited_covers_on_every_congruence_to_seven(self, lattices_to_7):
        checked = 0
        for L in lattices_to_7:
            for theta in con_lattice(L).cons:
                _check_inherited_covers(L, theta)
                checked += 1
        assert checked > 300

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_inherited_covers_on_products(self, corpus, data):
        factors = data.draw(st.lists(st.sampled_from(corpus), min_size=2, max_size=3))
        assume(np.prod([K.n for K in factors]) <= 64)
        L = product(*factors)
        cons = con_lattice(L).cons
        for theta in data.draw(st.lists(st.sampled_from(cons), min_size=1, max_size=8)):
            _check_inherited_covers(L, theta)


def _check_inherited_covers(L, theta):
    # the covers quotient hands over are those the order gives, and so are
    # the heights and bounds derived from them
    Q, _ = quotient(L, theta)
    covers, ext = _covers_of_order(Q._leq)
    assert Q.covers == covers, (L, theta)
    heights = _heights_from_covers(Q.n, covers, ext)
    assert Q.heights.tolist() == heights.tolist()
    assert (Q.bottom_i, Q.top_i) == (int(heights.argmin()), int(heights.argmax()))


class TestIsomorphism:
    def test_relabelled(self):
        M3 = builtin("M:3")
        relab = validate_lattice(
            ["b", "p", "q", "r", "t"],
            [("b", "p"), ("b", "q"), ("b", "r"), ("p", "t"), ("q", "t"), ("r", "t")])
        h = is_isomorphic(M3, relab)
        assert h is not None and h.injective and h.surjective

    def test_m3_not_n5(self):
        M3, N5 = builtin("M:3"), builtin("N5")
        assert is_isomorphic(M3, N5) is None
        assert brute_isomorphic(M3, N5) is None

    def test_size_mismatch(self):
        assert is_isomorphic(builtin("chain:2"), builtin("bool:2")) is None

    def test_agrees_with_permutation_oracle(self, small_lattices):
        sample = small_lattices[::3]
        for K in sample:
            for L in sample:
                if K.n > 5 or L.n > 5:
                    continue
                assert (is_isomorphic(K, L) is None) == (brute_isomorphic(K, L) is None)

    def test_witness_is_lexicographically_least(self):
        # the square has automorphisms; the least image sequence must win
        sq = builtin("bool:2")
        h = is_isomorphic(sq, sq)
        assert h.mapping.tolist() == [0, 1, 2, 3]

    def test_all_isomorphisms_in_lexicographic_order(self, small_lattices):
        # the search tries candidates in index order, so it lists every
        # automorphism in the lexicographic order of the image sequences
        for L in small_lattices:
            if L.n > 5:
                continue
            want = [list(p) for p in itertools.permutations(range(L.n))
                    if all(L.leq_i(a, b) == L.leq_i(p[a], p[b])
                           for a in range(L.n) for b in range(L.n))]
            assert [h.mapping.tolist() for h in all_isomorphisms(L, L)] == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_all_isomorphisms_onto_a_relabelled_copy(self, small_lattices, data):
        # the order must be preserved and reflected in both directions: onto
        # a copy with its elements in random order, every isomorphism comes
        # out, in the lexicographic order of the image sequences
        K = data.draw(st.sampled_from(small_lattices))
        perm = data.draw(st.permutations(range(K.n)))
        L = FiniteLattice._from_order([K.labels[p] for p in perm], K._leq[np.ix_(perm, perm)])
        want = [list(p) for p in itertools.permutations(range(K.n))
                if all(K.leq_i(a, b) == L.leq_i(p[a], p[b])
                       for a in range(K.n) for b in range(K.n))]
        assert [h.mapping.tolist() for h in all_isomorphisms(K, L)] == want

    def test_long_chain_needs_no_recursion(self, recursion_limit_above_caller):
        # the search keeps its own stack: a 301-element chain is matched with
        # the recursion limit only a few hundred frames above the caller
        K, L = builtin("chain:300"), builtin("chain:300")
        with recursion_limit_above_caller(200):
            h = is_isomorphic(K, L)
        assert h.mapping.tolist() == list(range(K.n))

    def test_lazy_product_refused(self):
        P = ProductLattice([builtin("M:3"), builtin("M:3")])
        assert isinstance(P, ProductLattice)
        for search in (is_isomorphic, all_isomorphisms):
            with pytest.raises(BudgetExceeded, match="needs a dense lattice"):
                search(P, P)

    def test_budget_message(self):
        # placing the eight elements of bool:3 takes more than 4 steps
        L = builtin("bool:3")
        with mock.patch.object(lattice, "ISO_SEARCH_BUDGET", 4):
            with pytest.raises(BudgetExceeded, match="^isomorphism search budget exhausted$"):
                all_isomorphisms(L, L)


class TestChains:
    def test_m3_spanning(self, named):
        M3 = named["M:3"]
        assert spanning_chains(M3, {2, 3}) == [
            ("0", "x1", "1"), ("0", "x2", "1"), ("0", "x3", "1")]

    def test_chain3_maximal(self, named):
        assert maximal_chains(named["chain:3"]) == [("0", "c1", "c2", "1")]
        assert spanning_chains(named["chain:3"], {3}) == [("0", "c1", "c2", "1")]

    def test_square_spanning(self):
        sq = builtin("bool:2")
        assert spanning_chains(sq, {2}) == [("00", "01", "11"), ("00", "10", "11")]

    def test_nonsaturated_chains_are_included(self, named):
        # a spanning chain may skip covers: {0, c1, 1} inside chain:3
        chains = spanning_chains(named["chain:3"], {2})
        assert ("0", "c1", "1") in chains and ("0", "c2", "1") in chains

    def test_long_chain_needs_no_recursion(self, recursion_limit_above_caller):
        # the walk keeps its own stack: one maximal chain of 301 elements
        # with the recursion limit only a few hundred frames above the caller
        L = builtin("chain:300")
        with recursion_limit_above_caller(200):
            chains = maximal_chains(L)
            spanning = spanning_chains(L, {2})
        assert chains == [tuple(chain_order(L))]
        assert len(spanning) == L.n - 2

    def test_maximal_chains_in_cover_order(self):
        assert maximal_chains(builtin("bool:2")) == [("00", "01", "11"), ("00", "10", "11")]


class TestPartial:
    def test_total_of_lattice(self, named):
        K = PartialLattice(named["M:3"])
        assert K.meet_defined("x1", "x2") and K.bounded

    def test_induced_cube_example(self):
        b3 = builtin("bool:3")
        K = PartialLattice(b3, ["000", "100", "110", "011", "111"])
        assert K.join_defined("100", "011") and K.join("100", "011") == "111"
        assert not K.meet_defined("110", "011")  # value 010 is outside

    def test_bounds_only(self, named):
        K = PartialLattice(named["M:3"], ["0", "1"])
        assert K.meet_defined("0", "1") and K.join_defined("0", "1")
        assert K.meet_defined("0", "0") and K.join_defined("1", "1")

    def test_not_spanning(self, named):
        with pytest.raises(NotSpanning):
            PartialLattice(named["M:3"], ["x1", "x2"])


class TestEmbedPartial:
    def test_total_into_superlattice(self, named):
        K = PartialLattice(named["M:3"], bounded=True)
        found = embed_partial(K, named["M:4"])
        assert found is not None
        assert len(set(found.values())) == 5

    def test_m3_pattern_not_in_n5(self, named):
        K = PartialLattice(named["M:3"], bounded=False)
        assert embed_partial(K, named["N5"]) is None

    def test_too_small_target(self, named):
        K = PartialLattice(named["2"])
        assert embed_partial(K, named["one"]) is None

    @pytest.mark.parametrize("target, want", [("2", None), ("one", {"*": "*"})])
    def test_one_element_sends_0_and_1_to_bounds(self, named, target, want):
        K = PartialLattice(named["one"])
        assert embed_partial(K, named[target]) == want

    def test_induced_partial_embeds_into_host(self, named):
        b3 = named["bool:3"]
        K = PartialLattice(b3, ["000", "100", "110", "011", "111"])
        found = embed_partial(K, b3)
        assert found is not None

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_oracle(self, small_lattices, data):
        # the partial sublattice induced by a random spanning subset of a
        # corpus lattice, bounded or not, into another corpus lattice: the
        # same first witness in lexicographic order, or None from both.  K's
        # tables hold exactly the pairs whose meet or join, by the order
        # oracle, lies in the subset, at that value's position
        S = data.draw(st.sampled_from(small_lattices))
        inner = sorted(set(S.labels) - {S.bottom, S.top})
        extra = data.draw(st.sets(st.sampled_from(inner))) if inner else set()
        subset = [S.bottom, S.top, *extra]
        K = PartialLattice(S, subset)
        if data.draw(st.booleans()):
            K = PartialLattice(S, K.labels, bounded=False)
        meet, join = oracle_tables_from_order(S.labels, S._leq)[:2]
        idxs = sorted({S.index(x) for x in subset})
        assert K.labels == tuple(S.labels[i] for i in idxs)
        pos = {g: k for k, g in enumerate(idxs)}
        for got, table in ((K.meets, meet), (K.joins, join)):
            assert got == {(a, b): pos[table[i, j]]
                           for a, i in enumerate(idxs) for b, j in enumerate(idxs)
                           if table[i, j] in pos}
        L = data.draw(st.sampled_from(small_lattices))
        assert embed_partial(K, L) == oracle_embed_partial(K, L)

    def test_long_chain_needs_no_recursion(self, recursion_limit_above_caller):
        # the search keeps its own stack: the 101 elements of chain:100 are
        # placed with the recursion limit only 50 frames above the caller
        L = builtin("chain:100")
        K = PartialLattice(L, L.labels)
        with recursion_limit_above_caller(50):
            found = embed_partial(K, L)
        assert found == {x: x for x in L.labels}

    def test_budget_message(self, named):
        K = PartialLattice(named["M:3"], bounded=False)
        with mock.patch.object(lattice, "EMBED_NODE_BUDGET", 10):
            with pytest.raises(BudgetExceeded,
                               match="^partial embedding search budget exhausted$"):
                embed_partial(K, named["N5"])


class TestSerialization:
    def test_round_trip(self, named):
        for L in (named["M:3"], named["N5"], named["F22"]):
            back = lattice_from_json(lattice_to_json(L))
            assert back.labels == L.labels and back.covers == L.covers

    def test_dot_deterministic(self, named):
        a = lattice_dot(named["N5"])
        b = lattice_dot(named["N5"])
        assert a == b
        assert a.count("->") == len(named["N5"].covers)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_distributive_matches_oracle(corpus, data):
    # D is empty iff L is distributive; a witness fails the law on L's tables
    factors = data.draw(st.lists(st.sampled_from(corpus), min_size=1, max_size=3))
    assume(np.prod([K.n for K in factors]) <= 128)
    L = product(*factors) if len(factors) > 1 else factors[0]
    ok, witness = is_distributive(L)
    assert ok == oracle_is_distributive(L)
    if not ok:
        x, y, z = map(L.index, witness)
        me, jo = L._meet, L._join
        assert me[x, jo[y, z]] != jo[me[x, y], me[x, z]]


def _check_law_tests(L):
    # the heights test is the modular law; the ends of D are its rows and
    # columns with an edge
    assert _is_modular(L) == oracle_is_modular(L), L
    D = _dependency(L)[2]
    out, into = _dependency_ends(L)
    assert out.tolist() == D.any(axis=1).tolist()
    assert into.tolist() == D.any(axis=0).tolist()


def test_law_tests_match_oracles_to_seven_elements(lattices_to_7):
    assert len(lattices_to_7) == 78
    for L in lattices_to_7:
        _check_law_tests(L)
    # modular lattices of 1 to 7 elements: 1, 1, 1, 2, 4, 8, 16 (OEIS A006981)
    assert sum(map(_is_modular, lattices_to_7)) == 33


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_law_tests_match_oracles_on_products(corpus, data):
    factors = data.draw(st.lists(st.sampled_from(corpus), min_size=2, max_size=3))
    assume(np.prod([K.n for K in factors]) <= 128)
    chunk = data.draw(st.sampled_from([1, 200, lattice._SEARCH_CHUNK]))
    with mock.patch.object(lattice, "_SEARCH_CHUNK", chunk):
        _check_law_tests(product(*factors))


def test_modular_examples(named):
    assert all(_is_modular(named[x]) for x in ("M:3", "M:5", "bool:3", "F22", "chain:5"))
    assert not _is_modular(named["N5"])
    assert _is_modular(builtin("chain:1000")) and not _is_modular(product(named["N5"], named["2"]))


def test_distributive_flags(named):
    assert is_distributive(named["F22"])[0]
    assert is_distributive(named["bool:3"])[0]
    ok, witness = is_distributive(named["M:3"])
    assert not ok and witness is not None
    assert not is_distributive(named["N5"])[0]
