import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from critlat import variety
from critlat.congruence import Congruence, JoinIrreducibles, con_lattice
from critlat.errors import BudgetExceeded, NotSubdirectlyIrreducible
from critlat.lattice import (
    ProductLattice,
    builtin,
    dual,
    is_isomorphic,
    product,
    quotient,
    validate_lattice,
    _is_modular,
)
from critlat.variety import (
    _law_excludes,
    _least_functional_tuple,
    _least_generating_set,
    _required_generators,
    _tuple_budget,
    find_separating_si,
    hs_member,
    si_pair_classifier,
    si_quotients,
    subdirect_decomposition,
    var_leq,
)

from oracles import (
    brute_congruences,
    brute_isomorphic,
    brute_subuniverses,
    enumerate_all_lattices,
    oracle_least_generating_set,
    oracle_si_quotients_json,
)


def projective_plane(q):
    """The subspace lattice of GF(q)^3 for a prime q: 0, the q^2 + q + 1
    points and as many lines, 1.  Simple and modular."""
    vecs = [v for v in itertools.product(range(q), repeat=3) if any(v)]
    pts = sorted({min(tuple(c * x % q for x in v) for c in range(1, q)) for v in vecs})
    covers = [("0", f"p{p}") for p in pts] + [(f"l{p}", "1") for p in pts]
    covers += [(f"p{p}", f"l{l}") for p in pts for l in pts
               if sum(a * b for a, b in zip(p, l)) % q == 0]
    labels = ["0", *(f"p{p}" for p in pts), *(f"l{p}" for p in pts), "1"]
    return validate_lattice(labels, covers, name=f"PG(2,{q})")


def oracle_hs_member(M, L):
    """Fully independent HS oracle: subsets by filtering, congruences by
    partition filtering, isomorphism by permutations."""
    for sub in brute_subuniverses(L):
        if len(sub) < M.n:
            continue
        labels = [L.labels[i] for i in sub]
        leq = [[L.leq_i(a, b) for b in sub] for a in sub]
        import numpy as np
        from critlat.lattice import FiniteLattice
        S = FiniteLattice._from_order(labels, np.array(leq, dtype=bool))
        for part in brute_congruences(S):
            if len(part) != M.n:
                continue
            blocks = [sorted(b) for b in part]
            theta = Congruence(S, blocks)
            from critlat.lattice import quotient
            Q, _ = quotient(S, theta)
            if brute_isomorphic(Q, M) is not None:
                return True
    return False


def replay_hs_witness(w, M, L):
    """Check an HS witness piece by piece against L's and M's own tables:
    S is a sublattice of L, theta a congruence of S, and iso, keyed by the
    least element of each block, an order isomorphism S/theta -> M."""
    S = w.sublattice
    sub = [L.index(x) for x in S.labels]
    assert sub == sorted(set(sub))
    assert list(w.inclusion.mapping) == sub
    for a in range(S.n):
        for b in range(S.n):
            assert L.meet_i(sub[a], sub[b]) in sub and L.join_i(sub[a], sub[b]) in sub
            assert S.leq_i(a, b) == L.leq_i(sub[a], sub[b])
    parts = {frozenset(b) for b in w.theta.blocks}
    assert parts in brute_congruences(S)
    blocks = w.theta.blocks
    assert list(w.iso.source.labels) == [S.labels[b[0]] for b in blocks]
    img = [int(w.iso.mapping[q]) for q in range(len(blocks))]
    assert sorted(img) == list(range(M.n))
    for p, bp in enumerate(blocks):
        for q, bq in enumerate(blocks):
            below = w.theta.block_of[S.join_i(bp[0], bq[0])] == q
            assert below == M.leq_i(img[p], img[q])


class TestDifferential:
    def test_hs_member_matches_oracle(self, small_lattices, named):
        members = [M for M in small_lattices if M.n <= 5]
        ambients = small_lattices + [named[x] for x in ("M:4", "M:5", "F22", "bool:3")] \
            + [product(named["N5"], named["2"])]
        for L in ambients:
            for M in members:
                w = hs_member(M, L)
                assert (w is not None) == oracle_hs_member(M, L), (M, L)
                if w is not None:
                    replay_hs_witness(w, M, L)

    def test_si_verdicts_match_con_of_quotient(self, corpus):
        for K in corpus:
            conK = con_lattice(K)
            expected = [t for t in conK.cons
                        if len(JoinIrreducibles(quotient(K, t)[0]).minimal()) == 1]
            thetas, _, _ = subdirect_decomposition(K)
            assert thetas == expected
            for s in si_quotients(K):
                assert s.theta in expected
                JQ = JoinIrreducibles(s.lattice)
                assert s.monolith == JQ.cons[JQ.minimal()[0]]

    def test_si_json_matches_oracle_on_corpus(self, corpus, lattices_to_7):
        for K in [K for K in corpus if K.n <= 6] + lattices_to_7:
            assert [s.to_json() for s in si_quotients(K)] \
                == oracle_si_quotients_json(K), K

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_si_json_matches_oracle_on_products(self, small_lattices, data):
        pool = [L for L in small_lattices if L.n <= 4]
        factors = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
        # at most 4^3 = 64 elements; Con of a product is the product of the
        # factors' Cons.  Any two factors are kept (chain:4 x chain:4 has 64
        # congruences); three are kept when at most 32 congruences keep the
        # oracle's pairwise joins in reach
        assume(len(factors) == 2 or np.prod([con_lattice(L).n for L in factors]) <= 32)
        K = product(*factors)
        assert [s.to_json() for s in si_quotients(K)] == oracle_si_quotients_json(K)


class TestSiQuotients:
    def test_m3(self, named):
        sis = si_quotients(named["M:3"])
        assert len(sis) == 1
        assert is_isomorphic(sis[0].lattice, named["M:3"]) is not None

    def test_square_collapses_to_two(self, named):
        sis = si_quotients(named["bool:2"])
        assert len(sis) == 1 and sis[0].lattice.n == 2

    def test_one_element_has_none(self, named):
        assert si_quotients(named["one"]) == []

    def test_n5(self, named):
        sizes = sorted(s.lattice.n for s in si_quotients(named["N5"]))
        assert sizes == [2, 5]

    def test_monolith_is_least_nonzero(self, named):
        for s in si_quotients(named["N5"]):
            JQ = JoinIrreducibles(s.lattice)
            assert len(JQ.minimal()) == 1
            assert s.monolith == JQ.cons[JQ.minimal()[0]]

    def test_budget(self):
        # no size budget of its own: bool:6 has one SI quotient, the 2-element one
        sis = si_quotients(builtin("bool:6"))
        assert len(sis) == 1 and sis[0].lattice.n == 2

    @pytest.mark.parametrize("name", ["bool:5", "chain:40"])
    def test_two_element_quotient_is_built_once(self, name):
        # every congruence of a Boolean lattice or a chain with an SI
        # quotient has two blocks; only the first is built
        with mock.patch.object(variety, "quotient", side_effect=quotient) as spy:
            sis = si_quotients(builtin(name))
        assert spy.call_count == 1
        assert [s.lattice.n for s in sis] == [2]

    @pytest.mark.parametrize("name", ["chain:31", "chain:33"])
    def test_long_chain_within_budget_is_fast(self, name):
        # Con(chain:31) has 2^31 members; its SI quotients come off J(Con K),
        # and K has no size budget of its own
        start = time.perf_counter()
        sis = si_quotients(builtin(name))
        assert time.perf_counter() - start < 1.0
        assert len(sis) == 1 and sis[0].lattice.n == 2


class TestSubdirectDecomposition:
    @pytest.mark.parametrize("name", ["bool:2", "bool:3", "chain:3", "N5",
                                      "M:3", "F22", "M:4"])
    def test_embedding_exists(self, named, name):
        K = named[name]
        thetas, P, emb = subdirect_decomposition(K)
        assert emb is not None and emb.injective
        # the thetas meet to zero: no two elements share a class of all
        classes = list(zip(*(t.block_of for t in thetas)))
        assert len(set(classes)) == K.n


class TestHsMember:
    def test_two_in_anything_bounded(self, named):
        for name in ("chain:2", "M:3", "N5"):
            w = hs_member(named["2"], named[name])
            assert w is not None

    def test_m3_in_m4_drops_one_atom(self, named):
        w = hs_member(named["M:3"], named["M:4"])
        assert w is not None
        assert w.sublattice.n == 5
        assert w.theta == Congruence.zero(w.sublattice)

    def test_m3_not_in_n5(self, named):
        assert hs_member(named["M:3"], named["N5"]) is None
        assert not oracle_hs_member(named["M:3"], named["N5"])

    def test_agrees_with_independent_oracle(self, named):
        pairs = [("2", "chain:2"), ("chain:2", "bool:2"), ("M:3", "M:4"),
                 ("N5", "M:3"), ("bool:2", "N5"), ("chain:3", "F22")]
        for a, b in pairs:
            mine = hs_member(named[a], named[b]) is not None
            assert mine == oracle_hs_member(named[a], named[b])

    def test_lazy_member_that_fits_is_refused(self):
        # M3 x 2 (10 elements, height 3) fits in bool:4 (16, height 4); a
        # lazy member too large or too tall for L stays absent
        M = ProductLattice([builtin("M:3"), builtin("2")])
        with pytest.raises(BudgetExceeded, match="^HS search needs a dense lattice"):
            hs_member(M, builtin("bool:4"))
        assert hs_member(M, builtin("M:4")) is None
        assert hs_member(builtin("bool:13"), builtin("M:3")) is None

    def test_taller_than_l_is_absent_without_search(self, named):
        # chain:7 has height 7 and bool:3 x chain:3 height 6; searching for
        # it closes 1 767 488 generator tuples, but budget 0 refuses any
        L = product(named["bool:3"], named["chain:3"])
        assert hs_member(builtin("chain:7"), L, max_subuniverses=0) is None

    @pytest.mark.parametrize("m, l", [("N5", "M:3^3"), ("N5", "bool:8"), ("M:3", "bool:8"),
                                      ("M:3", "chain:1000")])
    def test_law_decides_absent_without_search(self, named, m, l):
        # bool:8 and chain:1000 are distributive, M3^3 is modular; budget 0
        # refuses any search
        L = product(*[named["M:3"]] * 3) if l == "M:3^3" else builtin(l)
        start = time.perf_counter()
        assert hs_member(named[m], L) is None
        assert time.perf_counter() - start < 1.0
        assert hs_member(named[m], L, max_subuniverses=0) is None

    def test_witness_replays(self, named):
        w = hs_member(named["bool:2"], named["F22"])
        assert w is not None
        S = w.sublattice
        assert set(S.labels) <= set(named["F22"].labels)
        assert w.theta.is_valid()
        from critlat.lattice import quotient
        Q, _ = quotient(S, w.theta)
        assert w.iso.source.n == Q.n and w.iso.injective and w.iso.surjective


def search_without_laws(M, L):
    """hs_member's search alone, with a budget no test here reaches."""
    budget = _tuple_budget(M, L, 10 ** 9)
    return _least_functional_tuple(M, L, _least_generating_set(M, budget), budget)


class TestLawCheck:
    def test_required_generators_as_first_defined(self, lattices_to_7):
        # the elements that are neither the join of two below nor the meet
        # of two above, read off M's tables
        for M in lattices_to_7:
            lt = M._leq & ~np.eye(M.n, dtype=bool)
            old = [x for x in range(M.n)
                   if not (M._join[np.ix_(lt[:, x], lt[:, x])] == x).any()
                   and not (M._meet[np.ix_(lt[x], lt[x])] == x).any()]
            assert _required_generators(M) == old, M

    def test_least_generating_set_matches_oracle(self, lattices_to_7):
        for M in lattices_to_7:
            budget = _tuple_budget(M, M, 10 ** 9)
            assert _least_generating_set(M, budget) == oracle_least_generating_set(M), M

    def test_ruled_out_pairs_have_no_witness(self, lattices_to_7):
        ruled_out = 0
        for L in lattices_to_7:
            for M in lattices_to_7:
                if M.n <= L.n and M.height() <= L.height() and _law_excludes(M, L):
                    ruled_out += 1
                    assert search_without_laws(M, L) is None, (M, L)
        assert ruled_out > 100

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_ruled_out_pairs_have_no_witness_in_products(self, small_lattices, data):
        # products of modular lattices are modular, and distributive when
        # every factor is
        pool = [K for K in small_lattices if K.n <= 5 and _is_modular(K)]
        factors = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
        assume(np.prod([K.n for K in factors]) <= 64)
        L = product(*factors)
        M = data.draw(st.sampled_from([K for K in small_lattices if K.n >= 5]))
        if M.n <= L.n and M.height() <= L.height() and _law_excludes(M, L):
            assert search_without_laws(M, L) is None, (M, L)


class TestVarLeq:
    def test_known_table(self, named):
        table = [("2", "M:3", True), ("M:3", "M:4", True), ("M:4", "M:3", False),
                 ("N5", "M:3", False), ("M:3", "N5", False)]
        for a, b, expect in table:
            holds, cert = var_leq(named[a], named[b])
            assert holds == expect
            if expect:
                assert len(cert.witnesses) == len(cert.si_list)
            else:
                assert cert.failing_si is not None

    def test_chains_generate_the_same_variety(self, named):
        assert var_leq(named["chain:3"], named["chain:2"])[0]
        assert var_leq(named["chain:2"], named["chain:3"])[0]

    def test_cube_of_m3(self, named):
        # |K| = 125; the HS searches run in M3, and K's one SI quotient is M3
        M3 = named["M:3"]
        holds, cert = var_leq(product(M3, M3, M3), M3)
        assert holds and [s.lattice.n for s in cert.si_list] == [5]

    def test_reflexive(self, named):
        for name in ("M:3", "N5", "F22", "bool:2", "chain:3"):
            assert var_leq(named[name], named[name])[0]

    def test_transitive_samples(self, named):
        chain = ["2", "chain:2", "M:3", "M:4", "M:5"]
        for a, b, c in itertools.combinations(chain, 3):
            ab = var_leq(named[a], named[b])[0]
            bc = var_leq(named[b], named[c])[0]
            if ab and bc:
                assert var_leq(named[a], named[c])[0]

    def test_hs_implies_var_leq(self, named):
        for a, b in [("2", "N5"), ("chain:2", "bool:2"), ("M:3", "M:5")]:
            if hs_member(named[a], named[b]) is not None:
                assert var_leq(named[a], named[b])[0]

    def test_duality_compatible(self, named):
        for a, b in [("M:3", "M:4"), ("M:4", "M:3"), ("N5", "M:3"),
                     ("chain:3", "chain:2")]:
            plain = var_leq(named[a], named[b])[0]
            dualized = var_leq(dual(named[a]), dual(named[b]))[0]
            assert plain == dualized


class TestSeparatingSi:
    def test_m3_vs_n5(self, named):
        s = find_separating_si(named["M:3"], named["N5"])
        assert s is not None
        assert is_isomorphic(s.lattice, named["M:3"]) is not None

    def test_absent_when_contained(self, named):
        assert find_separating_si(named["chain:3"], named["chain:2"]) is None
        assert find_separating_si(named["M:3"], named["M:3"]) is None


class TestSiPairClassifier:
    def test_isomorphic_pair(self, named):
        relab = validate_lattice(
            ["b", "p", "q", "r", "t"],
            [("b", "p"), ("b", "q"), ("b", "r"), ("p", "t"), ("q", "t"), ("r", "t")])
        verdict, witness = si_pair_classifier(named["M:3"], relab)
        assert verdict == "Isomorphic" and witness is not None

    def test_self_dual_ties_break_to_plain(self, named):
        n5r = validate_lattice(
            ["z", "a", "b", "c", "t"],
            [("z", "a"), ("a", "b"), ("b", "t"), ("z", "c"), ("c", "t")])
        verdict, _ = si_pair_classifier(named["N5"], n5r)
        assert verdict == "Isomorphic"

    def test_distinct_classes(self, named):
        assert si_pair_classifier(named["M:3"], named["N5"])[0] == "DistinctConcClasses"
        assert si_pair_classifier(named["M:3"], named["M:4"])[0] == "DistinctConcClasses"

    def test_refused_search_is_indeterminate(self, named):
        # M:9 is modular like PG(2, 7), so no law rules it out, and ruling
        # it out by search takes more generator tuples than the budget
        assert si_pair_classifier(builtin("M:9"), projective_plane(7)) == ("Indeterminate", None)

    def test_modular_law_decides_without_search(self, named):
        # PG(2, 7) is modular and N5 is not, so N5 is not in its HS
        assert si_pair_classifier(named["N5"], projective_plane(7))[0] == "DistinctConcClasses"

    @pytest.mark.parametrize("name", ["M:40", "M:299"])
    def test_large_simple_lattice_is_decided(self, named, name):
        # N5 has height 3 and M:n height 2, so N5 is not in HS(M:n)
        assert si_pair_classifier(named["N5"], builtin(name))[0] == "DistinctConcClasses"

    def test_requires_si_inputs(self, named):
        with pytest.raises(NotSubdirectlyIrreducible):
            si_pair_classifier(named["chain:2"], named["M:3"])
        with pytest.raises(NotSubdirectlyIrreducible):
            si_pair_classifier(named["M:3"], named["bool:2"])
