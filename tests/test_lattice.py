import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critlat import lattice
from critlat.errors import (
    BudgetExceeded,
    CritlatError,
    CycleDetected,
    DuplicateLabel,
    NotALattice,
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
    dual,
    embed_partial,
    enumerate_subuniverses,
    induced_partial_sublattice,
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
)

from oracles import brute_isomorphic, brute_subuniverses


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

    def test_size_cap(self):
        M3 = builtin("M:3")
        with pytest.raises(SizeCapExceeded):
            product(*([M3] * 7))

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
        lazy = product(*fs, cap=0, allow_lazy=True)
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

    @pytest.mark.parametrize("order", [("N5", "2"), ("2", "N5")])
    def test_lazy_distributivity_witness_lies_in_product(self, order):
        L = product(*[builtin(nm) for nm in order], cap=1, allow_lazy=True)
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

    def test_map_out_of_a_lazy_product_through_two_coordinates_is_refused(self):
        # the identity of 2 x 2 through a lazy copy: a homomorphism, but it
        # depends on both coordinates, so the check refuses it
        sq = builtin("bool:2")
        lazy = product(builtin("2"), builtin("2"), cap=0, allow_lazy=True)
        with pytest.raises(BudgetExceeded):
            Homomorphism(lazy, sq, np.arange(4))
        Homomorphism(lazy, lazy, np.arange(4))


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
        assert len(M3.atoms_i()) == 3 and len(N5.atoms_i()) == 2
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

    def test_long_chain_needs_no_recursion(self):
        # the search keeps its own stack: a 301-element chain is matched with
        # the recursion limit only a few hundred frames above the caller
        K, L = builtin("chain:300"), builtin("chain:300")
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 200)
        try:
            h = is_isomorphic(K, L)
        finally:
            sys.setrecursionlimit(old)
        assert h.mapping.tolist() == list(range(K.n))


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


class TestPartial:
    def test_total_from_lattice(self, named):
        K = PartialLattice.from_lattice(named["M:3"])
        assert K.meet_defined("x1", "x2") and K.bounded

    def test_induced_cube_example(self):
        b3 = builtin("bool:3")
        K = induced_partial_sublattice(b3, ["000", "100", "110", "011", "111"])
        assert K.join_defined("100", "011") and K.join("100", "011") == "111"
        assert not K.meet_defined("110", "011")  # value 010 is outside

    def test_bounds_only(self, named):
        K = induced_partial_sublattice(named["M:3"], ["0", "1"])
        assert K.meet_defined("0", "1") and K.join_defined("0", "1")
        assert K.meet_defined("0", "0") and K.join_defined("1", "1")

    def test_not_spanning(self, named):
        with pytest.raises(NotSpanning):
            induced_partial_sublattice(named["M:3"], ["x1", "x2"])

    def test_dual_swaps_tables(self, named):
        K = induced_partial_sublattice(builtin("bool:3"),
                                       ["000", "100", "110", "011", "111"])
        D = K.dual()
        assert D.meet_defined("100", "011") and not D.join_defined("110", "011")


class TestEmbedPartial:
    def test_total_into_superlattice(self, named):
        K = PartialLattice.from_lattice(named["M:3"], bounded=True)
        found = embed_partial(K, named["M:4"])
        assert found is not None
        assert len(set(found.values())) == 5

    def test_m3_pattern_not_in_n5(self, named):
        K = PartialLattice.from_lattice(named["M:3"], bounded=False)
        assert embed_partial(K, named["N5"]) is None

    def test_too_small_target(self, named):
        K = PartialLattice.from_lattice(named["2"])
        assert embed_partial(K, named["one"]) is None

    def test_induced_partial_embeds_into_host(self, named):
        b3 = named["bool:3"]
        K = induced_partial_sublattice(b3, ["000", "100", "110", "011", "111"])
        found = embed_partial(K, b3)
        assert found is not None


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


def test_distributive_flags(named):
    assert is_distributive(named["F22"])[0]
    assert is_distributive(named["bool:3"])[0]
    ok, witness = is_distributive(named["M:3"])
    assert not ok and witness is not None
    assert not is_distributive(named["N5"])[0]
