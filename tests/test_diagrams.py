import functools
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critlat.congruence import JoinIrreducibles, con_lattice, conc_of_hom
from critlat.diagrams import (
    EMPTY,
    TOP,
    FinitePoset,
    IndexPoset,
    LatticeDiagram,
    _GENERATOR_COVERS,
    _GENERATOR_LABELS,
    _chain_lattice,
    admissible_triples,
    apply_conc,
    base_diagram,
    chain_diagram,
    chain_diagram_of_partial,
    diagram_from_json,
    diagram_to_json,
    directing_diagram,
    export_dot,
    extend_diagram,
    glued_diagram,
    law_failures,
    node_of,
    product_over,
    spanning_chains_of_subset,
)
from critlat.errors import (
    BadChainShapes,
    BudgetExceeded,
    CritlatError,
    DuplicateLabel,
    EmptyChainSet,
    NotLowerSubset,
    NotSpanning,
    PreconditionFailed,
    RestrictionMismatch,
    TooFewElements,
    UnknownElement,
)
from critlat import lattice
from critlat.lattice import (
    Homomorphism,
    _hom_failure,
    _same_lattice,
    ProductLattice,
    builtin,
    is_distributive,
    is_isomorphic,
    product_coords,
    product_index,
    product_projections,
    quotient,
    spanning_chains,
    subuniverse_closure,
    validate_lattice,
)
from critlat.liftings import dual_diagram, identity_lifting

from oracles import oracle_is_distributive, oracle_is_homomorphism

C1, C2, C3 = ("0", "x1", "1"), ("0", "x2", "1"), ("0", "x3", "1")


class TestIndexPosets:
    def test_three_length2_counts(self):
        ip = IndexPoset([C1, C2, C3])
        assert (len(ip.jc), len(ip.kc), len(ip.ic)) == (4, 7, 8)

    def test_single_chain_is_a_3_chain(self):
        ip = IndexPoset([C1])
        assert [str(n) for n in ip.ic] == ["{}", "{0<x1<1}", "T"]
        assert ip.le(EMPTY, TOP) and ip.le(node_of(C1), TOP)

    def test_contained_pair_admissible(self):
        d = ("0", "y1", "y2", "1")
        c = ("0", "y1", "1")
        ip = IndexPoset([c, d])
        assert node_of(c, d) in ip.ic

    def test_incomparable_long_pair_not_admissible(self):
        d1 = ("0", "y1", "y2", "1")
        d2 = ("0", "y1", "y3", "1")
        ip = IndexPoset([d1, d2])
        assert node_of(d1, d2) not in set(ip.ic)

    def test_empty_chain_rejected(self):
        with pytest.raises(EmptyChainSet):
            IndexPoset([()])

    def test_empty_chain_set_allowed(self):
        ip = IndexPoset([])
        assert [str(n) for n in ip.ic] == ["{}", "T"]

    @pytest.mark.parametrize("chains", [
        [C1, C2, C3],
        [C1, ("0", "x1", "x2", "1"), ("0", "x2", "1")],
        [],
    ])
    def test_pairs_match_brute_force(self, chains):
        ip = IndexPoset(chains)
        els = ip.elements
        assert ip.pairs() == [(a, b) for a in els for b in els if ip.le(a, b)]

    def test_order_pair_naming_no_element_is_ignored(self):
        sub = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"),
                                             ("z", "a")])
        assert sub.pairs() == [("a", "a"), ("a", "b"), ("a", "c"), ("b", "b"),
                               ("b", "c"), ("c", "c")]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_order_is_chain_inclusion(self, corpus, data):
        # the order built from the definition is inclusion of chain sets,
        # with the top above every node
        L = data.draw(st.sampled_from([K for K in corpus if K.n >= 2]))
        pool = spanning_chains(L, (1, 2, 3, 4))
        ip = IndexPoset(data.draw(st.lists(st.sampled_from(pool), max_size=6)))
        for p in ip.ic:
            for q in ip.ic:
                want = q.is_top or (not p.is_top and set(p.chains) <= set(q.chains))
                assert ip.le(p, q) == want


class TestDiagNode:
    """Nodes are values: equal chains give equal nodes and hashes whichever
    IndexPoset built them; a node cannot change; its id is its str."""

    CHAINS = [C1, C2, ("0", "x1", "x2", "1"), C3]

    def test_equal_chains_give_equal_nodes(self):
        first, second = IndexPoset(self.CHAINS).ic, IndexPoset(self.CHAINS[::-1]).ic
        assert first == second
        for a, b in zip(first, second):
            assert a is not b or a in (EMPTY, TOP)
            assert a == b and hash(a) == hash(b)
            # the hash the dataclass would derive, so set orders are unchanged
            assert hash(a) == hash((a.chains,))
        assert set(first) == set(second) and len(set(first + second)) == len(first)
        table = {n: k for k, n in enumerate(first)}
        assert [table[n] for n in second] == list(range(len(second)))
        assert node_of(C1, C2) != node_of(C1, C3) and node_of(C1) != EMPTY != TOP

    def test_nodes_are_frozen(self):
        n = node_of(C1)
        for name, value in (("chains", (C2,)), ("_hash", 0)):
            with pytest.raises(AttributeError):
                setattr(n, name, value)
        assert n == node_of(C1) and hash(n) == hash(node_of(C1))

    def test_ids_are_unchanged(self):
        ip = IndexPoset(self.CHAINS)
        assert [str(n) for n in ip.ic] == [
            "{}", "{0<x1<1}", "{0<x2<1}", "{0<x3<1}", "{0<x1<x2<1}", "{0<x1<1|0<x2<1}",
            "{0<x1<1|0<x3<1}", "{0<x1<1|0<x1<x2<1}", "{0<x2<1|0<x3<1}",
            "{0<x2<1|0<x1<x2<1}", "T"]
        assert [repr(n) for n in ip.ic] == [str(n) for n in ip.ic]
        assert str(node_of(("a<b", "c|d", "{e}", "\\"))) == "{a\\<b<c\\|d<\\{e\\}<\\\\}"
        D, _ = chain_diagram_of_partial(builtin("M:3"), builtin("M:3").labels)
        assert diagram_to_json(D)["poset"]["nodes"] == [str(n) for n in D.poset.elements]

    def test_pickle_rebuilds_the_node(self):
        for n in IndexPoset(self.CHAINS).ic:
            back = pickle.loads(pickle.dumps(n))
            assert back == n and hash(back) == hash(n)


class TestChainLattice:
    @pytest.mark.parametrize("chain", [("a",), ("0", "1"), C1, ("0", "x1", "x2", "1"),
                                       tuple("abcdefgh")])
    def test_tables_are_the_checked_ones(self, chain):
        got = _chain_lattice(chain)
        want = validate_lattice(chain, list(zip(chain, chain[1:])), name="<".join(chain))
        assert (got.labels, got.covers, got.name) == (want.labels, want.covers, want.name)
        assert (got.bottom_i, got.top_i) == (want.bottom_i, want.top_i)
        for a, b in ((got._leq, want._leq), (got._meet, want._meet), (got._join, want._join),
                     (got.heights, want.heights)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable or a is got.heights

    def test_repeated_label_raises(self):
        with pytest.raises(DuplicateLabel, match="^duplicate label 'a'$"):
            _chain_lattice(("0", "a", "b", "a", "1"))
        with pytest.raises(DuplicateLabel, match="^duplicate label 'a'$"):
            base_diagram([("0", "a", "a", "1")])
        with pytest.raises(DuplicateLabel, match="^duplicate label '0'$"):
            base_diagram([("0",)])


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

    def test_subset_label_outside_the_lattice(self, named):
        with pytest.raises(UnknownElement):
            chain_diagram_of_partial(named["M:3"], ["0", "zz", "1"])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_subset_chains_are_the_filtered_spanning_chains(self, corpus, data):
        # the walk stays inside the subset and keeps the order of the
        # filtered walk over all of L
        L = data.draw(st.sampled_from([K for K in corpus if K.n >= 2]))
        subset = {L.bottom, L.top} | data.draw(st.sets(st.sampled_from(L.labels)))
        want = [c for c in spanning_chains(L, (2, 3)) if set(c) <= subset]
        assert spanning_chains_of_subset(L, subset) == want

    def test_small_subset_of_a_long_chain(self):
        L = builtin("chain:1200")
        assert spanning_chains_of_subset(L, ["0", "c600", "1"]) == [("0", "c600", "1")]

    def test_lazy_product_refused(self):
        P = ProductLattice([builtin("M:3"), builtin("2")])
        with pytest.raises(BudgetExceeded, match="^chain diagrams need a dense lattice"):
            chain_diagram_of_partial(P, P.labels)

    @staticmethod
    def _assert_shared_by_closure(L, D):
        # each pair node holds the sublattice its chains generate, nodes
        # whose chains generate one element set hold one object, and the
        # edges between the same two lattice objects are one inclusion
        pairs = [nd for nd in D.poset.kc if len(nd.chains) == 2]
        closure = {}
        for nd in pairs:
            sub, _ = subuniverse_closure(L, {x for c in nd.chains for x in c})
            assert (D.lattices[nd].labels, D.lattices[nd].covers) == (sub.labels, sub.covers)
            closure[nd] = sub.labels
        assert all((D.lattices[a] is D.lattices[b]) == (closure[a] == closure[b])
                   for a in pairs for b in pairs)
        ends = {pq: (D.lattices[pq[0]], D.lattices[pq[1]]) for pq in D.maps}
        for pq, f in D.maps.items():
            src, tgt = ends[pq]
            assert f.source is src and f.target is tgt
            assert f.mapping.tolist() == [tgt.index(x) for x in src.labels]
        assert all((D.maps[e] is D.maps[g]) == (ends[e][0] is ends[g][0] and ends[e][1] is ends[g][1])
                   for e in D.maps for g in D.maps)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pair_nodes_of_one_closure_are_one_object(self, lattices_to_7, data):
        L = data.draw(st.sampled_from([K for K in lattices_to_7 if K.n >= 2]))
        subset = {L.bottom, L.top} | data.draw(st.sets(st.sampled_from(L.labels)))
        D, _ = chain_diagram_of_partial(L, subset)
        self._assert_shared_by_closure(L, D)

    def test_bool3_pair_nodes_share(self):
        # 41 nodes: the bottom, 12 chains, 27 pairs and the top; the 27 pair
        # nodes generate 15 element sets
        L = builtin("bool:3")
        D, _ = chain_diagram_of_partial(L, L.labels)
        self._assert_shared_by_closure(L, D)
        assert len(D.poset.elements) == 41
        assert len({id(D.lattices[nd]) for nd in D.poset.elements}) == 29
        assert (len(D.maps), len({id(f) for f in D.maps.values()})) == (174, 120)



class TestGuaranteedByConstruction:
    """What chain_diagram, directing_diagram and glued_diagram guarantee and
    no longer check when they run: every non-top node is distributive, and
    the restriction to JC is the base diagram."""

    @staticmethod
    def _assert_guarantees(D):
        for nd in D.poset.elements:
            if not nd.is_top:
                assert oracle_is_distributive(D.lattices[nd]), nd
        bounds = D.lattices[EMPTY].labels
        assert D.restrict(D.poset.jc).equal(base_diagram(D.poset.chains, bounds))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_chain_diagrams_of_bounded_sublattices_of_products(self, corpus, data):
        pool = [K for K in corpus if 2 <= K.n <= 6]
        factors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
        P = lattice.product(*factors)
        gens = data.draw(st.sets(st.sampled_from(P.labels), min_size=1, max_size=3))
        sub, _ = subuniverse_closure(P, gens, include_bounds=True)
        D, _ = chain_diagram_of_partial(P, sub.labels)
        self._assert_guarantees(D)

    @pytest.mark.parametrize("name", ["M:3", "N5"])
    def test_directing_diagrams_over_every_admissible_triple(self, name):
        K = builtin(name)
        triples = admissible_triples(spanning_chains_of_subset(K, K.labels))
        assert triples
        for triple in triples:
            self._assert_guarantees(directing_diagram(K, *triple))

    def test_index_poset_does_not_pair_chains_generating_n5(self):
        N5 = builtin("N5")
        c, d = ("0", "x3", "1"), ("0", "x1", "x2", "1")
        sub, _ = subuniverse_closure(N5, set(c) | set(d))
        assert sub.n == N5.n and not oracle_is_distributive(sub)
        ip = IndexPoset(spanning_chains_of_subset(N5, N5.labels))
        assert {c, d} <= set(ip.chains) and node_of(c, d) not in set(ip.ic)

@functools.lru_cache(maxsize=None)
def _product_pool():
    """Diagrams over the chains C1, C2, C3 that agree on JC: the chain
    diagrams and the directing diagrams of M:3 and N5."""
    pool = [chain_diagram(builtin(nm), [C1, C2, C3]) for nm in ("M:3", "N5")]
    return tuple(pool + [directing_diagram(builtin(nm), C1, C2, C3) for nm in ("M:3", "N5")])


class TestProductOver:
    def test_single_factor_unchanged(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        assert product_over(D.poset.jc, [D]) is D

    def test_two_copies_square_the_top(self, named):
        D, _ = chain_diagram_of_partial(named["chain:2"], named["chain:2"].labels)
        P = product_over(D.poset.jc, [D, D])
        assert P.lattices[TOP].n == named["chain:2"].n ** 2
        for n in D.poset.jc:
            assert P.lattices[n] is D.lattices[n]

    def test_restriction_agrees(self, named):
        D, _ = chain_diagram_of_partial(named["chain:2"], named["chain:2"].labels)
        P = product_over(D.poset.jc, [D, D])
        assert P.restrict(D.poset.jc).equal(D.restrict(D.poset.jc))

    def test_projections_are_natural(self, named):
        D, _ = chain_diagram_of_partial(named["chain:2"], named["chain:2"].labels)
        P = product_over(D.poset.jc, [D, D])

        def proj(n, t):
            # the identity on JC, the canonical projection elsewhere
            if n in D.poset.jc:
                return Homomorphism.identity(P.lattices[n])
            return product_projections(P.lattices[n])[t]
        for t in range(2):
            for (p, q) in D.poset.pairs():
                left = proj(q, t).compose(P.maps[(p, q)])
                right = D.maps[(p, q)].compose(proj(p, t))
                assert left.equal_map(right)

    @staticmethod
    def _same_as_lazy(ds):
        jc = ds[0].poset.jc
        dense = product_over(jc, ds)
        # every product node lazy
        with mock.patch.object(lattice, "PRODUCT_CAP", 0):
            lazy = product_over(jc, ds)
        for n in dense.poset.elements:
            assert dense.lattices[n].labels == lazy.lattices[n].labels
            if n not in jc:
                assert isinstance(lazy.lattices[n], ProductLattice)
                pairs = zip(product_projections(dense.lattices[n]),
                            product_projections(lazy.lattices[n]))
                assert all(dp.equal_map(lp) for dp, lp in pairs)
        for pq in dense.poset.pairs():
            assert dense.maps[pq].equal_map(lazy.maps[pq])

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
    """The Homomorphism constructor accepts exactly the maps that preserve
    meet and join on every pair, dense or lazy on either side."""

    @staticmethod
    def _accepts(f):
        try:
            Homomorphism(f.source, f.target, f.mapping)
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
            f = Homomorphism._trusted(L, L, [op(x, a) for x in range(L.n)])
        mapping = f.mapping.copy()
        if f.target.n > 1 and data.draw(st.booleans()):
            i = data.draw(st.integers(0, f.source.n - 1))
            mapping[i] = (mapping[i] + data.draw(st.integers(1, f.target.n - 1))) % f.target.n
        return Homomorphism._trusted(f.source, f.target, mapping)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_oracle(self, small_lattices, data):
        kind = data.draw(st.sampled_from(["dense", "into-lazy", "out-of-lazy",
                                          "both-coordinates", "product-over"]))
        if kind == "product-over":
            ds = data.draw(st.lists(st.sampled_from(_product_pool()), min_size=2, max_size=3))
            with mock.patch.object(lattice, "PRODUCT_CAP", 0):
                D = product_over(ds[0].poset.jc, ds)
            # edges out of lazy nodes; edges into them come with "into-lazy"
            pq = data.draw(st.sampled_from([(p, q) for (p, q) in D.poset.pairs()
                                            if p != q and p not in D.poset.jc]))
            f = D.maps[pq]
            if data.draw(st.booleans()):
                i = data.draw(st.integers(0, f.source.n - 1))
                bad = f.mapping.copy()
                bad[i] = (bad[i] + data.draw(st.integers(1, f.target.n - 1))) % f.target.n
                f = Homomorphism._trusted(f.source, f.target, bad)
        elif kind == "both-coordinates":
            # (a, b) -> (f a, g b) out of a lazy A x B into the dense product
            # of the targets, one entry changed half of the time
            f, g = (self._dense_map(data.draw(st.sampled_from(
                [K for K in small_lattices if 2 <= K.n <= 5])), data) for _ in range(2))
            P = ProductLattice([f.source, g.source])
            T = lattice.product(f.target, g.target)
            a, b = product_coords(P.sizes, np.arange(P.n))
            mapping = product_index((f.target.n, g.target.n), [f.mapping[a], g.mapping[b]])
            if data.draw(st.booleans()):
                mapping[data.draw(st.integers(0, P.n - 1))] = data.draw(st.integers(0, T.n - 1))
            f = Homomorphism._trusted(P, T, mapping)
        else:
            L = data.draw(st.sampled_from(small_lattices))
            f = self._dense_map(L, data)
            # the drawn map sits in coordinate k of a two-factor lazy product
            k = data.draw(st.integers(0, 1))
            if kind == "into-lazy":
                _, h = quotient(f.source, data.draw(st.sampled_from(con_lattice(f.source).cons)))
                parts = [f, h] if k == 0 else [h, f]
                P = ProductLattice([g.target for g in parts])
                f = Homomorphism._trusted(
                    f.source, P, product_index(P.sizes, [g.mapping for g in parts]))
            elif kind == "out-of-lazy":
                C = data.draw(st.sampled_from([K for K in small_lattices if K.n <= 4]))
                P = ProductLattice([f.source, C] if k == 0 else [C, f.source])
                coords = product_coords(P.sizes, np.arange(P.n))
                f = Homomorphism._trusted(P, f.target, f.mapping[coords[k]])
        assert self._accepts(f) == oracle_is_homomorphism(f)


    def test_every_one_entry_corruption_of_a_lazy_edge_as_on_the_dense_product(self):
        # the edges {C, D} -> T of the square of the M:3 chain diagram run
        # between lazy products and depend on both coordinates once one
        # entry changes; each verdict must be the dense product's, and each
        # witness a pair the map breaks
        D, _ = chain_diagram_of_partial(builtin("M:3"), builtin("M:3").labels)
        dense = product_over(D.poset.jc, [D, D])
        with mock.patch.object(lattice, "PRODUCT_CAP", 0):
            lazy = product_over(D.poset.jc, [D, D])
        for p in D.poset.elements:
            if p in D.poset.jc or p == TOP:
                continue
            f, g = lazy.maps[(p, TOP)], dense.maps[(p, TOP)]
            S, T = f.source, f.target
            assert isinstance(S, ProductLattice) and isinstance(T, ProductLattice)
            for i in range(S.n):
                for v in range(T.n):
                    m = f.mapping.copy()
                    m[i] = v
                    bad = _hom_failure(S, T, m)
                    assert (bad is None) == (_hom_failure(g.source, g.target, m) is None)
                    if bad is not None:
                        op, a, b = bad
                        s_op, t_op = (S.meet_i, T.meet_i) if op == "meet" else (S.join_i, T.join_i)
                        assert m[s_op(a, b)] != t_op(m[a], m[b])
        # the law walk reports the corruption instead of raising
        pq = (node_of(C1, C2), TOP)
        m = lazy.maps[pq].mapping.copy()
        m[1] = m[2]
        maps = dict(lazy.maps)
        maps[pq] = Homomorphism._trusted(lazy.lattices[pq[0]], lazy.lattices[TOP], m)
        assert ("edge-not-hom", *pq) in list(law_failures(lazy.poset, lazy.lattices, maps))


class TestLawfulByType:
    def test_lattices_and_maps_are_read_only(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        f = D.maps[(EMPTY, TOP)]
        for table, key, value in ((D.maps, (EMPTY, TOP), f), (D.lattices, EMPTY, named["2"])):
            with pytest.raises(TypeError):
                table[key] = value
            with pytest.raises(TypeError):
                del table[key]
        assert D.maps[(EMPTY, TOP)] is f

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_derived_diagrams_keep_the_laws(self, lawful_diagrams, data):
        # the derived diagrams are built without a law check: products over
        # JC of 2 or 3 diagrams on one poset, dense or lazy, and the
        # restrictions to JC and KC and the duals of a diagram and of its
        # product must all be lawful
        D = data.draw(st.sampled_from(lawful_diagrams))
        ip = D.poset
        same = [E for E in lawful_diagrams if E.poset == ip]
        factors = data.draw(st.lists(st.sampled_from(same), min_size=2, max_size=3))
        cap = data.draw(st.sampled_from([lattice.PRODUCT_CAP, 0]))
        with mock.patch.object(lattice, "PRODUCT_CAP", cap):
            P = product_over(ip.jc, factors)
        for E in (D, P):
            for R in (E, E.restrict(ip.jc), E.restrict(ip.kc)):
                for X in (R, dual_diagram(R)):
                    assert list(law_failures(X.poset, X.lattices, X.maps)) == []

    def test_chain_diagrams_of_the_corpus_keep_the_laws(self, corpus):
        # chain_diagram builds without a law check
        for K in corpus:
            if K.n >= 2:
                D, _ = chain_diagram_of_partial(K, K.labels)
                assert list(law_failures(D.poset, D.lattices, D.maps)) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_built_diagrams_keep_the_laws(self, corpus, data):
        # the library's builders run no law check: base diagrams over random
        # chain sets, chain diagrams of random spanning subsets, extensions
        # by extra chains, and directing diagrams over M:3 and N5 with c3 of
        # length 2 or 3 must all pass the walk
        kind = data.draw(st.sampled_from(["base", "chain", "extend", "directing"]))
        middles = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3,
                           unique=True)
        if kind == "base":
            D = base_diagram([("0", *m, "1") for m in data.draw(st.lists(middles, max_size=4))])
        elif kind == "chain":
            K = data.draw(st.sampled_from([K for K in corpus if K.n >= 2]))
            inner = [x for x in K.labels if x not in (K.bottom, K.top)]
            subset = [K.bottom, K.top] + data.draw(st.lists(st.sampled_from(inner), unique=True)
                                                   if inner else st.just([]))
            D, _ = chain_diagram_of_partial(K, subset)
        elif kind == "extend":
            if data.draw(st.booleans()):
                B = data.draw(st.sampled_from(_directing_pool()))
            else:
                K = data.draw(st.sampled_from([K for K in corpus if 2 <= K.n <= 6]))
                B, _ = chain_diagram_of_partial(K, K.labels)
            b, t = B.lattices[EMPTY].labels
            D = extend_diagram(B, [(b, *m, t) for m in data.draw(st.lists(middles, max_size=3))])
        else:
            x, y, z = data.draw(st.permutations(["a", "b", "c"]))
            c3 = data.draw(st.sampled_from([("0", z, "1"), ("0", x, y, "1"), ("0", y, x, "1")]))
            D = directing_diagram(builtin(data.draw(st.sampled_from(["M:3", "N5"]))),
                                  ("0", x, "1"), ("0", y, "1"), c3)
        assert list(law_failures(D.poset, D.lattices, D.maps)) == []

    def test_glued_diagram_keeps_the_laws(self, named):
        # the chain diagram of all of M:3 glued with its directing diagrams,
        # whose top of 78 125 elements is a lazy product
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
        D = g.diagram
        assert isinstance(D.lattices[TOP], ProductLattice) and D.lattices[TOP].n == 5 ** 7
        assert list(law_failures(D.poset, D.lattices, D.maps)) == []

    def test_restrict_keeps_element_order_and_relation(self, lawful_diagrams):
        for D in lawful_diagrams[:5] + lawful_diagrams[-2:]:
            P, keep = D.poset, set(D.poset.kc[::2])
            want = [e for e in P.elements if e in keep]
            assert P.restrict(keep) == FinitePoset(
                want, [(a, b) for a in want for b in want if P.le(a, b)])

    def test_glued_diagram_builds_no_lazy_labels(self, named):
        # the glued diagram and Conc's refusal read sizes only
        built = []

        def counted(factors):
            labels = real(factors)
            built.append(len(labels))
            return labels

        real = lattice._product_labels
        with mock.patch.object(lattice, "_product_labels", counted):
            g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
            with pytest.raises(BudgetExceeded, match=r"^congruence computations need a dense "
                                                     r"lattice, got a ProductLattice of 16384 "
                                                     r"elements$"):
                identity_lifting(g.diagram)
        assert any(isinstance(L, ProductLattice) for L in g.diagram.lattices.values())
        assert max(built, default=0) <= lattice.PRODUCT_CAP


class TestLawWalk:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_commutativity_failures_match_brute_force(self, lawful_diagrams, data):
        # one entry of one edge p <= r changes; the triangles p < q < r
        # reported are exactly the brute-force list of non-commuting ones,
        # and each passes through that edge
        D = data.draw(st.sampled_from(lawful_diagrams))
        els, le = D.poset.elements, D.poset.le
        p, r = data.draw(st.sampled_from(D.poset.pairs()))
        f = D.maps[(p, r)]
        m = f.mapping.copy()
        i = data.draw(st.integers(0, f.source.n - 1))
        m[i] = (m[i] + data.draw(st.integers(1, f.target.n - 1))) % f.target.n
        maps = dict(D.maps)
        maps[(p, r)] = Homomorphism._trusted(f.source, f.target, m)

        def commutes(a, b, c):
            first, then = maps[(a, b)].mapping.tolist(), maps[(b, c)].mapping.tolist()
            return maps[(a, c)].mapping.tolist() == [then[x] for x in first]

        want = [(a, b, c) for a in els for b in els for c in els
                if a != b != c and le(a, b) and le(b, c) and not commutes(a, b, c)]
        assert [t[1:] for t in law_failures(D.poset, D.lattices, maps)
                if t[0] == "commutativity"] == want
        assert all((p, r) in ((a, b), (b, c), (a, c)) for a, b, c in want)
        # the changed edge fails every triangle it closes
        assert {(p, q, r) for q in els if p != q != r and le(p, q) and le(q, r)} <= set(want)


    @pytest.mark.parametrize("seed", range(4))
    def test_edge_and_triangle_verdicts_match_the_oracles(self, lawful_diagrams, seed):
        # per diagram, a random mapping on one random edge, then on one edge
        # whose (source shape, target shape, mapping) another edge shares,
        # then the same random mapping on every edge of that group: each
        # edge gets its own map's verdict
        rng = np.random.default_rng(seed)

        def key(f):
            return f.source.n, f.source.covers, f.target.n, f.target.covers, f.mapping.tobytes()

        for D in lawful_diagrams:
            groups = {}
            for pq, f in D.maps.items():
                groups.setdefault(key(f), []).append(pq)
            twins = [g for g in groups.values() if len(g) > 1]
            pairs = D.poset.pairs()
            trials = [[pairs[rng.integers(len(pairs))]]]
            if twins:
                group = twins[rng.integers(len(twins))]
                trials += [[group[rng.integers(len(group))]], group]
            for changed in trials:
                f = D.maps[changed[0]]
                m = rng.integers(0, f.target.n, f.source.n)
                maps = dict(D.maps)
                for pq in changed:
                    maps[pq] = Homomorphism._trusted(f.source, f.target, m)
                _assert_laws_match_oracles(D.poset, D.lattices, maps)

    @pytest.mark.parametrize("order", [["k", "m", "n"], ["k", "n", "m"]])
    def test_one_mapping_into_m3_and_into_n5(self, order):
        # 0 < c1 < c2 < 1 sent to the indices of 0, x1, x2, 1: a chain in
        # N5, where x1 < x2, and not in M3; the two targets have five
        # elements each, so only their shapes tell the verdicts apart
        lattices = {"k": builtin("chain:3"), "m": builtin("M:3"), "n": builtin("N5")}
        maps = {(x, x): Homomorphism.identity(L) for x, L in lattices.items()}
        for x in "mn":
            maps[("k", x)] = Homomorphism._trusted(lattices["k"], lattices[x], [0, 1, 2, 4])
        poset = FinitePoset(order, [("k", "m"), ("k", "n")])
        assert list(law_failures(poset, lattices, maps)) == [("edge-not-hom", "k", "m")]
        _assert_laws_match_oracles(poset, lattices, maps)

    @pytest.mark.parametrize("order", [["p", "q", "a"], ["q", "p", "a"]])
    def test_lazy_ends_are_decided_per_edge(self, order):
        # chain:3 x 2 and 2 x chain:3 are lazy, with eight elements each:
        # i -> i // 2 is the projection out of the first
        # and no homomorphism out of the second, and 0, 1, 2, 3 -> 0, 3, 5, 7
        # the embedding k -> (k, k > 0) into the first and not into the second
        A, B = builtin("chain:3"), builtin("2")
        lattices = {"p": ProductLattice([A, B]), "q": ProductLattice([B, A]), "a": A}

        def walk(edges):
            maps = {(x, x): Homomorphism.identity(L) for x, L in lattices.items()}
            maps.update({(x, y): Homomorphism._trusted(lattices[x], lattices[y], m)
                         for x, y, m in edges})
            poset = FinitePoset(order, [(x, y) for x, y, _ in edges])
            return list(law_failures(poset, lattices, maps))

        out_of, into = np.arange(8) // 2, [0, 3, 5, 7]
        assert walk([("p", "a", out_of), ("q", "a", out_of)]) == [("edge-not-hom", "q", "a")]
        assert walk([("a", "p", into), ("a", "q", into)]) == [("edge-not-hom", "a", "q")]


def _assert_laws_match_oracles(poset, lattices, maps):
    """The edge and triangle failures of the law walk are the maps the
    oracle rejects and the triangles that do not compose, each once."""
    failures = list(law_failures(poset, lattices, maps))
    assert len(failures) == len(set(failures))
    els, le = poset.elements, poset.le

    def found(kind):
        return {t[1:] for t in failures if t[0] == kind}

    def commutes(a, b, c):
        first, then = maps[(a, b)].mapping.tolist(), maps[(b, c)].mapping.tolist()
        return maps[(a, c)].mapping.tolist() == [then[x] for x in first]

    pairs = poset.pairs()
    assert found("edge-not-hom") == {pq for pq in pairs if not oracle_is_homomorphism(maps[pq])}
    assert found("edge-not-bounded") == {pq for pq in pairs if not maps[pq].preserves_bounds}
    assert found("commutativity") == {(a, b, c) for a in els for b in els for c in els
                                      if a != b != c and le(a, b) and le(b, c)
                                      and not commutes(a, b, c)}


@functools.lru_cache(maxsize=None)
def _directing_pool():
    """The directing diagrams of M:3 and N5 over every admissible triple."""
    return tuple(directing_diagram(builtin(nm), *triple) for nm in ("M:3", "N5")
                 for triple in admissible_triples(
                     spanning_chains_of_subset(builtin(nm), builtin(nm).labels)))


class TestExtendDiagram:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_extension_rule(self, corpus, data):
        # B stays as it was, each new pair {C, N} with C old holds C's
        # lattice, and every edge out of {N} to a node of B or a new pair
        # {C, N} collapses N onto the bounds
        if data.draw(st.booleans()):
            B = data.draw(st.sampled_from(_directing_pool()))
        else:
            K = data.draw(st.sampled_from([K for K in corpus if 2 <= K.n <= 6]))
            B, _ = chain_diagram_of_partial(K, K.labels)
        b, t = B.lattices[EMPTY].labels
        labels = sorted({x for c in B.poset.chains for x in c[1:-1]}) + ["w1", "w2", "w3"]
        middles = st.lists(st.sampled_from(labels), min_size=1, max_size=2, unique=True)
        chains = [(b, *m, t) for m in data.draw(st.lists(middles, min_size=1, max_size=2))]
        E = extend_diagram(B, chains)
        assert E.restrict(B.poset.ic).equal(B)
        for N in set(chains) - set(B.poset.chains):
            for C in B.poset.chains:
                if node_of(C, N) in E.poset.elements:
                    assert _same_lattice(E.lattices[node_of(C, N)], B.lattices[node_of(C)])
            for q in E.poset.elements:
                if q != node_of(N) and E.poset.le(node_of(N), q) and (
                        q.is_top or set(q.chains) <= set(B.poset.chains) | {N}):
                    f, g = E.maps[(node_of(N), q)], E.maps[(EMPTY, q)]
                    assert [f.apply(x) for x in N] == \
                        [g.apply(b)] * (len(N) - 1) + [g.apply(t)]

    def test_empty_new_chain_rejected(self):
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        with pytest.raises(EmptyChainSet):
            extend_diagram(dd, [()])

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
        old_ic = IndexPoset([C1, C2, C3]).ic
        for e in (e1, e2):
            assert e.restrict(old_ic).equal(dd)
            assert e.restrict(e.poset.jc).equal(
                base_diagram(e.poset.chains, bounds=("0", "1")))

    def test_same_order_reproducible_up_to_iso(self):
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        a, b = ("0", "a", "1"), ("0", "b", "1")
        e1 = extend_diagram(dd, [a, b])
        e2 = extend_diagram(dd, [b, a])  # sorted internally, same order
        assert e1.equal(e2)

    def test_precondition_failure(self, named):
        # a lawful diagram whose bottom node lattice is relabelled does not
        # restrict to the base diagram
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        wrong = validate_lattice(["z", "t"], [("z", "t")])
        lattices, maps = dict(D.lattices), dict(D.maps)
        lattices[EMPTY] = wrong
        for q in D.poset.elements:
            target = wrong if q == EMPTY else D.lattices[q]
            maps[(EMPTY, q)] = Homomorphism._trusted(wrong, target, D.maps[(EMPTY, q)].mapping)
        bad = LatticeDiagram(D.poset, lattices, maps)
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

    def test_generator_is_read_off_its_labels_and_covers(self):
        for nm in ("M:3", "N5"):
            assert builtin(nm).labels == _GENERATOR_LABELS
        assert _GENERATOR_COVERS == {builtin(nm).covers for nm in ("M:3", "N5")}
        m3 = builtin("M:3")
        # M3 given its covers in another order is M3; a relabelled M3, the
        # dual of N5 and other five-element lattices are not generators
        again = validate_lattice(m3.labels, [(m3.labels[i], m3.labels[j])
                                             for i, j in m3.covers[::-1]])
        directing_diagram(again, C1, C2, C3)
        relabelled = validate_lattice(["0", "a", "b", "c", "1"],
                                      [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])
        for kgen in (relabelled, lattice.dual(builtin("N5")), builtin("chain:4"),
                     builtin("M:4")):
            with pytest.raises(BadChainShapes, match="must be the builtin M:3 or N5"):
                directing_diagram(kgen, C1, C2, C3)


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

    def test_repeated_labels_count_once(self, named):
        with pytest.raises(TooFewElements):
            glued_diagram(named["M:3"], ["0", "x1", "x2", "x2", "1"], builtin("M:3"))

    def test_subset_label_outside_the_lattice(self, named):
        with pytest.raises(UnknownElement):
            glued_diagram(named["M:3"], ["0", "a", "b", "c", "1"], builtin("M:3"))

    def test_lazy_product_refused(self):
        P = ProductLattice([builtin("M:3"), builtin("2")])
        with pytest.raises(BudgetExceeded, match="^chain diagrams need a dense lattice"):
            glued_diagram(P, P.labels, builtin("M:3"))

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
        # only 0 goes to 0: phi(0) is empty and no phi(down j) is
        for (p, q) in D.poset.pairs():
            cm = S.maps[(p, q)]
            assert not cm.zero.any() and cm.images.any(axis=1).all()

    def test_budget(self, named):
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
        with pytest.raises(BudgetExceeded):
            apply_conc(g.diagram)

    def test_shared_arrays_are_read_only(self, named):
        D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
        S = apply_conc(D)
        J, edge = S.J[node_of(C1)], S.maps[(EMPTY, node_of(C1))]
        # the three 3-element chains share one J(Con), the edges into them one Conc
        assert S.J[node_of(C2)].leq is J.leq
        assert S.maps[(EMPTY, node_of(C2))].images is edge.images
        for table in (J.leq, J._gen, J._below, J._covers, J._cover_of, edge.zero, edge.images):
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = table.flat[0]


def _unshared_conc(D):
    """apply_conc with nothing shared: a fresh J(Con) per node and
    conc_of_hom per edge."""
    J = {n: JoinIrreducibles(D.lattices[n]) for n in D.poset.elements}
    return J, {(p, q): conc_of_hom(D.maps[(p, q)], J[p], J[q]) for (p, q) in D.poset.pairs()}


def _assert_shared_conc_agrees(D):
    S = apply_conc(D)
    J, maps = _unshared_conc(D)
    for n in D.poset.elements:
        got, want = S.J[n], J[n]
        assert got.pairs == want.pairs
        assert np.array_equal(got.leq, want.leq)
        assert [t.block_of for t in got.cons] == [t.block_of for t in want.cons]
        assert got.host is D.lattices[n] and all(t.host is D.lattices[n] for t in got.cons)
        assert [t.label_blocks() for t in got.cons] == [t.label_blocks() for t in want.cons]
    for (p, q), want in maps.items():
        got = S.maps[(p, q)]
        assert got.source is S.J[p] and got.target is S.J[q]
        assert got.equal_map(want)
    # one J(Con) per distinct node shape
    shapes = {(L.n, L.covers) for L in D.lattices.values()}
    assert len({id(S.J[n].leq) for n in D.poset.elements}) == len(shapes)


class TestSharedConc:
    """apply_conc computes J(Con) once per node shape and Conc once per edge
    shape; every node and edge must read as the unshared path's."""

    def test_corpus_and_directing_diagrams(self, lawful_diagrams):
        for D in lawful_diagrams:
            _assert_shared_conc_agrees(D)

    def test_dual_diagrams(self, lawful_diagrams):
        for D in lawful_diagrams:
            _assert_shared_conc_agrees(dual_diagram(D))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chain_diagrams_of_bounded_sublattices(self, corpus, data):
        pool = [K for K in corpus if 2 <= K.n <= 6]
        factors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
        P = lattice.product(*factors)
        gens = data.draw(st.sets(st.sampled_from(P.labels), min_size=1, max_size=3))
        sub, _ = subuniverse_closure(P, gens, include_bounds=True)
        _assert_shared_conc_agrees(chain_diagram_of_partial(P, sub.labels)[0])


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

    def test_dot_escapes_quotes_and_backslashes(self):
        L = validate_lattice(["0", 'x"y', "z\\w", "1"],
                             [("0", 'x"y'), ("0", "z\\w"), ('x"y', "1"), ("z\\w", "1")])
        D, _ = chain_diagram_of_partial(L, L.labels)
        dot = export_dot(D)
        assert '[label="x\\"y", shape=plaintext];' in dot
        assert '[label="z\\\\w", shape=plaintext];' in dot
        # with the escapes taken out, the quotes on each line pair up
        assert all(line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0
                   for line in dot.splitlines())

    def test_dot_summarizes_giant_nodes(self, named):
        g = glued_diagram(named["M:3"], named["M:3"].labels, builtin("M:3"))
        dot = export_dot(g.diagram)
        assert '"78125 elements"' in dot
        assert dot.count("subgraph cluster_") == 8
