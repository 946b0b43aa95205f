import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critlat.congruence import con_lattice
from critlat.diagrams import (
    EMPTY,
    TOP,
    FinitePoset,
    admissible_triples,
    apply_conc,
    base_diagram,
    build_index_posets,
    chain_diagram,
    chain_diagram_of_partial,
    diagram_from_json,
    diagram_isomorphic,
    diagram_to_json,
    directing_diagram,
    export_dot,
    extend_diagram,
    glued_diagram,
    node_of,
    product_over,
)
from critlat.errors import (
    BadChainShapes,
    BudgetExceeded,
    CritlatError,
    EmptyChainSet,
    NotLowerSubset,
    NotSpanning,
    PreconditionFailed,
    RestrictionMismatch,
    TooFewElements,
)
from critlat.lattice import (
    Homomorphism,
    builtin,
    is_distributive,
    is_isomorphic,
    product,
    product_coords,
    product_index,
    quotient,
    subuniverse_closure,
)

from oracles import oracle_is_homomorphism

C1, C2, C3 = ("0", "x1", "1"), ("0", "x2", "1"), ("0", "x3", "1")


class TestIndexPosets:
    def test_three_length2_counts(self):
        ip = build_index_posets([C1, C2, C3])
        assert (len(ip.jc), len(ip.kc), len(ip.ic)) == (4, 7, 8)

    def test_single_chain_is_a_3_chain(self):
        ip = build_index_posets([C1])
        assert [str(n) for n in ip.ic] == ["{}", "{0<x1<1}", "T"]
        assert ip.le(EMPTY, TOP) and ip.le(node_of(C1), TOP)

    def test_contained_pair_admissible(self):
        d = ("0", "y1", "y2", "1")
        c = ("0", "y1", "1")
        ip = build_index_posets([c, d])
        assert node_of(c, d) in ip.ic

    def test_incomparable_long_pair_not_admissible(self):
        d1 = ("0", "y1", "y2", "1")
        d2 = ("0", "y1", "y3", "1")
        ip = build_index_posets([d1, d2])
        assert node_of(d1, d2) not in set(ip.ic)

    def test_empty_chain_rejected(self):
        with pytest.raises(EmptyChainSet):
            build_index_posets([()])

    def test_empty_chain_set_allowed(self):
        ip = build_index_posets([])
        assert [str(n) for n in ip.ic] == ["{}", "T"]

    @pytest.mark.parametrize("chains", [
        [C1, C2, C3],
        [C1, ("0", "x1", "x2", "1"), ("0", "x2", "1")],
        [],
    ])
    def test_pairs_and_triples_match_brute_force(self, chains):
        ip = build_index_posets(chains)
        els = ip.elements
        assert ip.pairs() == [(a, b) for a in els for b in els if ip.le(a, b)]
        assert ip.strict_triples() == [
            (a, b, c) for a in els for b in els for c in els
            if a != b and b != c and ip.le(a, b) and ip.le(b, c)]

    def test_order_pair_naming_no_element_is_ignored(self):
        sub = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"),
                                             ("z", "a")])
        assert sub.pairs() == [("a", "a"), ("a", "b"), ("a", "c"), ("b", "b"),
                               ("b", "c"), ("c", "c")]
        assert sub.strict_triples() == [("a", "b", "c")]


class TestBaseDiagram:
    def test_single_chain(self):
        bd = base_diagram([("0", "c1", "1")])
        e = bd.maps[(EMPTY, node_of(("0", "c1", "1")))]
        assert e.apply("0") == "0" and e.apply("1") == "1"

    def test_empty_chain_set(self):
        bd = base_diagram([])
        assert len(bd.poset.elements) == 1
        assert bd.lattices[EMPTY].labels == ("0", "1")

    def test_mismatched_extremities(self):
        with pytest.raises(BadChainShapes):
            base_diagram([("0", "a", "1"), ("z", "b", "t")])


class TestChainDiagram:
    def test_m3_structure(self, named):
        D, chains = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        assert len(D.poset.elements) == 8
        assert len(chains) == 3
        for c, d in [(C1, C2), (C1, C3), (C2, C3)]:
            nd = node_of(c, d)
            assert is_isomorphic(D.lattices[nd], builtin("bool:2")) is not None

    def test_restriction_to_jc_is_base(self, named):
        D, chains = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        ip = D.poset
        assert D.restrict(ip.jc).equal(base_diagram(chains))

    def test_chain3_chain_set(self, named):
        D, chains = chain_diagram_of_partial(named["chain:3"], named["chain:3"].labels)
        assert len(chains) == 3  # two of length 2, one of length 3
        assert sorted(len(c) for c in chains) == [3, 3, 4]

    def test_non_top_nodes_distributive(self, named):
        for name in ("M:3", "N5", "F22"):
            D, _ = chain_diagram_of_partial(named[name], named[name].labels)
            for nd in D.poset.elements:
                if not nd.is_top:
                    assert is_distributive(D.lattices[nd])[0]

    def test_requires_spanning_chains(self, named):
        with pytest.raises(NotSpanning):
            chain_diagram(named["M:3"], [("x1", "1")])

    def test_subset_must_span(self, named):
        with pytest.raises(NotSpanning):
            chain_diagram_of_partial(named["M:3"], ["x1", "x2", "1"])


@functools.lru_cache(maxsize=None)
def _product_pool():
    """Diagrams over the chains C1, C2, C3 that agree on JC: the chain
    diagrams and the directing diagrams of M:3 and N5."""
    pool = [chain_diagram(builtin(nm), [C1, C2, C3]) for nm in ("M:3", "N5")]
    return tuple(pool + [directing_diagram(builtin(nm), C1, C2, C3) for nm in ("M:3", "N5")])


class TestProductOver:
    def test_single_factor_unchanged(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        P, projs = product_over(D.poset.jc, [D])
        assert P is D
        assert all((h.mapping == range(h.source.n)).all()
                   for h in projs[0].values())

    def test_two_copies_square_the_top(self, named):
        D, _ = chain_diagram_of_partial(named["chain:2"], named["chain:2"].labels)
        P, projs = product_over(D.poset.jc, [D, D])
        assert P.lattices[TOP].n == named["chain:2"].n ** 2
        for n in D.poset.jc:
            assert P.lattices[n] is D.lattices[n]

    def test_restriction_agrees(self, named):
        D, _ = chain_diagram_of_partial(named["chain:2"], named["chain:2"].labels)
        P, _ = product_over(D.poset.jc, [D, D])
        assert P.restrict(D.poset.jc).equal(D.restrict(D.poset.jc))

    def test_projections_are_natural(self, named):
        D, _ = chain_diagram_of_partial(named["chain:2"], named["chain:2"].labels)
        P, projs = product_over(D.poset.jc, [D, D])
        for t, proj in enumerate(projs):
            for (p, q) in D.poset.pairs():
                left = proj[q].compose(P.maps[(p, q)])
                right = D.maps[(p, q)].compose(proj[p])
                assert left.equal_map(right)

    @staticmethod
    def _same_as_lazy(ds):
        jc = ds[0].poset.jc
        dense, dense_projs = product_over(jc, ds)
        lazy, lazy_projs = product_over(jc, ds, cap=0)
        for n in dense.poset.elements:
            assert dense.lattices[n].labels == lazy.lattices[n].labels
        for pq in dense.poset.pairs():
            assert dense.maps[pq].equal_map(lazy.maps[pq])
        for dp, lp in zip(dense_projs, lazy_projs):
            assert all(dp[n].equal_map(lp[n]) for n in dense.poset.elements)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_lazy_nodes_give_the_same_maps(self, data):
        ds = data.draw(st.lists(st.sampled_from(_product_pool()), min_size=2, max_size=3))
        self._same_as_lazy(ds)

    def test_lazy_nodes_give_the_same_maps_three_factors(self):
        # a fixed three-factor mix of chain and directing diagrams, checked
        # on every run whatever hypothesis draws above
        pool = _product_pool()
        self._same_as_lazy([pool[0], pool[3], pool[2]])

    def test_not_lower_subset(self, named):
        D, _ = chain_diagram_of_partial(named["chain:2"], named["chain:2"].labels)
        with pytest.raises(NotLowerSubset):
            product_over([TOP], [D, D])

    def test_restriction_mismatch(self, named):
        # over N5 the {c1,c2} node is a 4-chain, over the M:3 directing
        # pattern it is a square; a J containing that node must be rejected
        D1 = chain_diagram(named["N5"], [C1, C2, C3])
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        pair = node_of(C1, C2)
        j = list(D1.poset.jc) + [pair]
        with pytest.raises(RestrictionMismatch):
            product_over(j, [D1, dd])


class TestExactHomomorphismCheck:
    """Homomorphism(..., check="full") accepts exactly the maps that preserve
    meet and join on every pair, dense or lazy on either side."""

    @staticmethod
    def _accepts(f):
        try:
            Homomorphism(f.source, f.target, f.mapping, check="full")
        except CritlatError:
            return False
        return True

    @staticmethod
    def _dense_map(L, data):
        """A quotient map, a sublattice inclusion, or x -> x ^ a or x v a,
        which preserve one operation and often not the other; with one
        image entry changed half of the time."""
        kind = data.draw(st.sampled_from(["quotient", "sublattice", "meet-a", "join-a"]))
        if kind == "quotient":
            _, f = quotient(L, data.draw(st.sampled_from(con_lattice(L).cons)))
        elif kind == "sublattice":
            _, f = subuniverse_closure(L, data.draw(st.sets(st.sampled_from(L.labels),
                                                            min_size=1)))
        else:
            a = data.draw(st.integers(0, L.n - 1))
            op = L.meet_i if kind == "meet-a" else L.join_i
            f = Homomorphism(L, L, [op(x, a) for x in range(L.n)], check="none")
        mapping = f.mapping.copy()
        if f.target.n > 1 and data.draw(st.booleans()):
            i = data.draw(st.integers(0, f.source.n - 1))
            mapping[i] = (mapping[i] + data.draw(st.integers(1, f.target.n - 1))) % f.target.n
        return Homomorphism(f.source, f.target, mapping, check="none")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_oracle(self, small_lattices, data):
        kind = data.draw(st.sampled_from(["dense", "into-lazy", "out-of-lazy",
                                          "product-over"]))
        if kind == "product-over":
            ds = data.draw(st.lists(st.sampled_from(_product_pool()), min_size=2, max_size=3))
            D, _ = product_over(ds[0].poset.jc, ds, cap=0, with_projections=False)
            # edges out of lazy nodes; edges into them come with "into-lazy"
            pq = data.draw(st.sampled_from([(p, q) for (p, q) in D.poset.pairs()
                                            if p != q and p not in D.poset.jc]))
            f = D.maps[pq]
            if data.draw(st.booleans()):
                i = data.draw(st.integers(0, f.source.n - 1))
                bad = f.mapping.copy()
                bad[i] = (bad[i] + data.draw(st.integers(1, f.target.n - 1))) % f.target.n
                f = Homomorphism(f.source, f.target, bad, check="none")
        else:
            L = data.draw(st.sampled_from(small_lattices))
            f = self._dense_map(L, data)
            # the drawn map sits in coordinate k of a two-factor lazy product
            k = data.draw(st.integers(0, 1))
            if kind == "into-lazy":
                _, h = quotient(f.source, data.draw(st.sampled_from(con_lattice(f.source).cons)))
                parts = [f, h] if k == 0 else [h, f]
                P = product(*[g.target for g in parts], cap=0, allow_lazy=True)
                f = Homomorphism(f.source, P, product_index(P.sizes, [g.mapping for g in parts]),
                                 check="none")
            elif kind == "out-of-lazy":
                C = data.draw(st.sampled_from([K for K in small_lattices if K.n <= 4]))
                P = product(*([f.source, C] if k == 0 else [C, f.source]), cap=0, allow_lazy=True)
                coords = product_coords(P.sizes, np.arange(P.n))
                f = Homomorphism(P, f.target, f.mapping[coords[k]], check="none")
        assert self._accepts(f) == oracle_is_homomorphism(f)


class TestExtendDiagram:
    def test_no_new_chains_unchanged(self):
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        assert extend_diagram(dd, [C1, C2, C3]) is dd

    def test_single_extension_maps(self):
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        new = ("0", "w", "1")
        ext = extend_diagram(dd, [new])
        pair = node_of(C1, new)
        # the pair node carries the old chain; the new chain collapses onto
        # its bounds before entering
        assert ext.lattices[pair].labels == ("0", "x1", "1")
        f = ext.maps[(node_of(new), pair)]
        assert f.apply("w") == "0" and f.apply("1") == "1"
        g = ext.maps[(node_of(C1), pair)]
        assert g.apply("x1") == "x1"

    def test_postconditions_hold_for_both_orders(self):
        # the extension is order-asymmetric on pair nodes (the chain already
        # present wins the slot), so the two orders need not give isomorphic
        # diagrams; both must satisfy the extension contract
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        a, b = ("0", "a", "1"), ("0", "b", "1")
        e1 = extend_diagram(dd, [a, b])
        e2 = extend_diagram(extend_diagram(dd, [b]), [a])
        old_ic = build_index_posets([C1, C2, C3]).ic
        for e in (e1, e2):
            assert e.restrict(old_ic).equal(dd)
            assert e.restrict(e.poset.jc).equal(
                base_diagram(e.poset.chains, bounds=("0", "1")))

    def test_same_order_reproducible_up_to_iso(self):
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        a, b = ("0", "a", "1"), ("0", "b", "1")
        e1 = extend_diagram(dd, [a, b])
        e2 = extend_diagram(dd, [b, a])  # sorted internally, same order
        assert diagram_isomorphic(e1, e2)

    def test_precondition_failure(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        bad = D.restrict(D.poset.ic)
        bad.maps[(EMPTY, TOP)] = bad.maps[(EMPTY, TOP)].compose(
            bad.maps[(EMPTY, EMPTY)])
        # break the base restriction by relabelling the bottom node lattice
        from critlat.lattice import Homomorphism, validate_lattice
        wrong = validate_lattice(["z", "t"], [("z", "t")])
        bad.lattices[EMPTY] = wrong
        for q in bad.poset.elements:
            old = bad.maps[(EMPTY, q)]
            bad.maps[(EMPTY, q)] = Homomorphism(wrong, old.target, old.mapping,
                                                check="none")
        with pytest.raises(PreconditionFailed):
            extend_diagram(bad, [("0", "w", "1")])


class TestDirectingDiagram:
    def test_three_short_chains(self):
        dd, T = directing_diagram(builtin("M:3"), C1, C2, C3, with_t=True)
        # isotone surjections of a 3-chain onto a 3-chain: only the identity
        # pattern, so a single factor (enumerated, not assumed)
        assert len(T) == 1
        assert dd.lattices[TOP].n == builtin("M:3").n ** len(T)

    def test_long_third_chain(self):
        d = ("0", "y1", "y2", "1")
        dd, T = directing_diagram(builtin("M:3"), ("0", "y1", "1"),
                                  ("0", "y2", "1"), d, with_t=True)
        assert len(T) == 3  # cuts of a 4-chain into three nonempty intervals
        assert dd.lattices[TOP].n == 5 ** 3

    def test_restriction_is_base(self):
        dd = directing_diagram(builtin("N5"), C1, C2, C3)
        assert dd.restrict(dd.poset.jc).equal(base_diagram([C1, C2, C3]))

    def test_pair_node_shapes(self):
        ddm = directing_diagram(builtin("M:3"), C1, C2, C3)
        ddn = directing_diagram(builtin("N5"), C1, C2, C3)
        sq = builtin("bool:2")
        # over M:3 the {c1,c2} node is a square; over N5 it is a 4-chain
        assert is_isomorphic(ddm.lattices[node_of(C1, C2)], sq) is not None
        assert is_isomorphic(ddn.lattices[node_of(C1, C2)],
                             builtin("chain:3")) is not None

    def test_bad_shapes(self):
        with pytest.raises(BadChainShapes):
            directing_diagram(builtin("M:3"), C1, C1, C3)
        with pytest.raises(BadChainShapes):
            directing_diagram(builtin("M:3"), ("0", "a", "b", "1"), C2, C3)
        with pytest.raises(BadChainShapes):
            directing_diagram(builtin("M:3"), C1, C2, ("0", "y1", "y2", "1"))
        with pytest.raises(BadChainShapes):
            directing_diagram(builtin("F22"), C1, C2, C3)


class TestGluedDiagram:
    def test_m3_shape(self, named):
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
        assert len(g.triples) == 6          # ordered pairs of 3 chains, third fixed
        assert g.factor_count == 7
        assert g.diagram.lattices[TOP].n == 5 ** 7
        for nd in g.diagram.poset.elements:
            if not nd.is_top:
                assert is_distributive(g.diagram.lattices[nd])[0]

    def test_restriction_to_jc(self, named):
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
        ip = g.diagram.poset
        assert g.diagram.restrict(ip.jc).equal(base_diagram(g.chains))

    def test_n5_generator(self, named):
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("N5"))
        assert g.factor_count == 7
        assert g.diagram.lattices[TOP].n == 5 ** 7
        for nd in g.diagram.poset.elements:
            if not nd.is_top:
                assert is_distributive(g.diagram.lattices[nd])[0]

    def test_too_few_elements(self, named):
        with pytest.raises(TooFewElements):
            glued_diagram(named["bool:2"], named["bool:2"].labels, builtin("M:3"))

    def test_admissible_triples_chain3(self, named):
        chains = [("0", "c1", "1"), ("0", "c2", "1"), ("0", "c1", "c2", "1")]
        triples = admissible_triples(chains)
        # both ordered pairs of the two short chains, third chain contains them
        assert len(triples) == 2
        assert all(t[2] == ("0", "c1", "c2", "1") for t in triples)


class TestApplyConc:
    def test_single_node(self, named):
        D, _ = chain_diagram_of_partial(named["2"], named["2"].labels)
        S = apply_conc(D)
        assert len(S.J[TOP]) == 1
        assert con_lattice(S.J[TOP].host).n == 2

    def test_m3_chain_diagram_nodes_boolean(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        S = apply_conc(D)
        for nd in D.poset.elements:
            if not nd.is_top:
                assert S.J[nd].boolean_atoms() is not None

    def test_inclusion_edges_separate_zero(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        S = apply_conc(D)
        for (p, q) in D.poset.pairs():
            assert S.maps[(p, q)].separates_zero

    def test_budget(self, named):
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
        with pytest.raises(BudgetExceeded):
            apply_conc(g.diagram)


class TestSerialization:
    def test_json_round_trip(self, named):
        D, _ = chain_diagram_of_partial(named["N5"], named["N5"].labels)
        back = diagram_from_json(diagram_to_json(D))
        assert len(back.poset.elements) == len(D.poset.elements)
        for n, m in zip(sorted(map(str, D.poset.elements)),
                        sorted(back.poset.elements)):
            assert n == m
        for (p, q) in D.poset.pairs():
            assert back.maps[(str(p), str(q))].as_label_dict() == \
                D.maps[(p, q)].as_label_dict()

    def test_dot_deterministic(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        assert export_dot(D) == export_dot(D)
        assert export_dot(D).count("subgraph cluster_") == 8

    def test_dot_summarizes_giant_nodes(self, named):
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
        dot = export_dot(g.diagram)
        assert '"78125 elements"' in dot
        assert dot.count("subgraph cluster_") == 8
