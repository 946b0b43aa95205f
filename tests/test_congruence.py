import itertools
import timeit

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from critlat.congruence import (
    ConcMap,
    ConcMemo,
    Congruence,
    JoinIrreducibles,
    con_lattice,
    conc_of_hom,
    inclusion_hom,
    is_boolean,
    is_congruence_chain,
    is_congruence_preserving_extension,
    is_direct_congruence_chain,
    is_simple,
    kernel,
    principal_congruence,
)
from critlat.errors import (BudgetExceeded, ConNotBoolean, HostMismatch, NotACongruence,
                            NotASublattice)
from critlat.lattice import (
    FiniteLattice,
    Homomorphism,
    ProductLattice,
    builtin,
    dual,
    is_distributive,
    lattice_to_json,
    product,
    product_projections,
    quotient,
    subuniverse_closure,
    validate_lattice,
)
from critlat.liftings import lifting_from_json

from oracles import (
    all_partitions,
    brute_congruences,
    canon_ids,
    con_as_partition_set,
    oracle_closure,
    oracle_con,
    oracle_conc_of_hom,
    oracle_isomorphism,
    oracle_join_preserving,
    oracle_partition_join,
)


class TestPrincipal:
    def test_reflexive_pair_gives_zero(self, named):
        L = named["N5"]
        assert principal_congruence(L, "x1", "x1") == Congruence.zero(L)

    def test_bounds_in_simple_lattice(self, named):
        M3 = named["M:3"]
        assert principal_congruence(M3, "0", "1") == Congruence.one(M3)
        # simplicity of M3 cross-checked against the partition oracle
        assert len(brute_congruences(M3)) == 2

    def test_chain2_blocks(self, named):
        theta = principal_congruence(named["chain:2"], "0", "c1")
        assert theta.label_blocks() == [["0", "c1"], ["1"]]

    def test_minimality_against_oracle(self, small_lattices):
        for L in small_lattices:
            if L.n > 5:
                continue
            cons = brute_congruences(L)
            for a, b in itertools.combinations(range(L.n), 2):
                theta = principal_congruence(L, L.labels[a], L.labels[b])
                mine = frozenset(frozenset(blk) for blk in theta.blocks)
                for part in cons:
                    bo = {i: k for k, blk in enumerate(part) for i in blk}
                    if bo[a] == bo[b]:
                        # theta must refine every congruence containing (a,b)
                        assert all(
                            len({bo[i] for i in blk}) == 1 for blk in mine)


class TestJoinMeet:
    """Joins, meets and refinement of congruences are OR, AND and subset on
    their down-set masks over J(Con L)."""

    def test_neutral(self, named):
        L = named["N5"]
        J = JoinIrreducibles(L)
        t = J.principal_masks(L.index("x1"), L.index("x2"))
        zero, one = np.zeros(len(J), dtype=bool), np.ones(len(J), dtype=bool)
        assert ((t | zero) == t).all() and ((t & one) == t).all()
        assert J.congruences(t)[0] == principal_congruence(L, "x1", "x2")

    def test_chain_steps_join_to_one(self, named):
        L = named["chain:2"]
        J = JoinIrreducibles(L)
        t1, t2 = J.principal_masks(np.array([0, 1]), np.array([1, 2]))
        assert (t1 | t2).all()
        assert J.congruences(t1 | t2)[0] == Congruence.one(L)

    def test_square_atoms_meet_to_zero(self):
        sq = builtin("bool:2")
        J = JoinIrreducibles(sq)
        t1 = J.principal_masks(sq.index("00"), sq.index("01"))
        t2 = J.principal_masks(sq.index("00"), sq.index("10"))
        assert not (t1 & t2).any()
        assert J.congruences(t1 & t2)[0] == Congruence.zero(sq)


def _atoms(con):
    """The atoms of Con: the congruences whose down-set in J holds one member."""
    return [t for t, m in zip(con.cons, con.masks) if m.sum() == 1]


def _images(cm, con):
    """phi(theta) for each congruence theta of con, read off its mask."""
    return cm.target.congruences(cm.on_masks(con.masks))


def _con_order_lattice(con):
    """Con L as a dense lattice on c0..c{m-1}: masks[a] is a subset of
    masks[b] iff no member of J is in a but not in b."""
    M = con.masks
    return FiniteLattice._from_order([f"c{k}" for k in range(con.n)], ~(M @ ~M.T))


class TestConLattice:
    def test_equals_brute_enumeration(self, named):
        for name in ("2", "chain:2", "chain:3", "M:3", "N5", "bool:2", "F22"):
            L = named[name]
            assert con_as_partition_set(con_lattice(L)) == brute_congruences(L)

    def test_chain_con_is_boolean(self, named):
        for n in (1, 2, 3, 4, 5):
            con = con_lattice(named[f"chain:{n}"])
            assert is_boolean(con) and len(con.J.boolean_atoms()) == n and con.n == 2 ** n

    def test_m3_simple(self, named):
        assert con_lattice(named["M:3"]).n == 2

    def test_one_element(self, named):
        assert con_lattice(named["one"]).n == 1

    def test_con_distributive_sanity(self, corpus):
        for L in corpus:
            if L.n > 6:
                continue
            con = con_lattice(L)
            ok, _ = is_distributive(_con_order_lattice(con))
            assert ok

    def test_invalid_partition_rejected(self, named):
        with pytest.raises(NotACongruence):
            Congruence.from_label_blocks(named["N5"], [["0", "x1"], ["x2"], ["x3"], ["1"]])

    @pytest.mark.parametrize("blocks", [
        [[0], [1], [2], [3], [-1]],         # -1 is not read as the last element
        [[0, 1, 2, 3, -1]],
        [[0, 1], [2], [3], [7]],            # past the host
        [[0.0], [1], [2], [3], [4]],
        [[True], [False], [2], [3], [4]],   # bools are not read as 1 and 0
    ])
    def test_block_indices_are_checked(self, named, blocks):
        with pytest.raises(NotACongruence, match="is not the index of an element"):
            Congruence(named["N5"], blocks)

    def test_con_budget_counts_cells(self):
        # |Con L| * |L| is bounded, not |Con L|: 2^15 * 16 cells fit 300 * 2048,
        # 2^16 * 17 do not, and the enumeration stops at the first congruence
        # past 614 400 / 17
        assert con_lattice(builtin("chain:15")).n == 2 ** 15
        with pytest.raises(BudgetExceeded, match=r"36142 congruences enumerated "
                                                 r"from \|J\(Con L\)\| = 16$"):
            con_lattice(builtin("chain:16"))


class TestConcOfHom:
    def test_identity_functor_law(self, named):
        L = named["N5"]
        cm = conc_of_hom(Homomorphism.identity(L))
        con = con_lattice(L)
        assert _images(cm, con) == list(con.cons)

    def test_two_into_chain(self, named):
        two, c2 = named["2"], named["chain:2"]
        f = Homomorphism.from_labels(two, c2, {"0": "0", "1": "1"})
        cm = conc_of_hom(f)
        one = cm.source.mask_of(Congruence.one(two).block_of)
        assert cm.target.congruences(cm.on_masks(one))[0] == Congruence.one(c2)

    def test_inclusion_into_square_hits_distinct_atoms(self):
        sq = builtin("bool:2")
        sub, _ = subuniverse_closure(sq, ["00", "01", "11"])
        cm = conc_of_hom(inclusion_hom(sub, sq))
        consub, consq = con_lattice(sub), con_lattice(sq)
        atoms = consub.masks[consub.masks.sum(axis=1) == 1]
        assert set(cm.target.congruences(cm.on_masks(atoms))) == set(_atoms(consq))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_functoriality_on_composites(self, lawful_diagrams, data):
        # Conc(g . f) = Conc g . Conc f for composable edges of chain and
        # directing diagrams, an edge followed by a quotient map, and two
        # quotient maps in turn; every map against the oracle, and Conc of
        # an identity is the identity.  The laws of apply_conc(D) rest on
        # this.
        D = data.draw(st.sampled_from(lawful_diagrams))
        p, q = data.draw(st.sampled_from(D.poset.pairs()))
        kind = data.draw(st.sampled_from(["edges", "edge-quotient", "quotients"]))
        if kind == "quotients":
            A = D.lattices[p]
            _, f = quotient(A, data.draw(st.sampled_from(con_lattice(A).cons)))
        else:
            f = D.maps[(p, q)]
        if kind == "edges":
            g = D.maps[(q, data.draw(st.sampled_from(
                [r for r in D.poset.elements if D.poset.le(q, r)])))]
        else:
            _, g = quotient(f.target, data.draw(st.sampled_from(con_lattice(f.target).cons)))
        _assert_composite_agrees(f, g)
        _assert_conc_agrees(g.compose(f))
        # the identity, read through a second J of the same lattice
        J = JoinIrreducibles(f.source)
        cm = conc_of_hom(Homomorphism.identity(f.source), J, JoinIrreducibles(f.source))
        assert cm.equal_map(ConcMap.identity(J))

    def test_injective_separates_zero(self, named):
        sq = builtin("bool:2")
        sub, _ = subuniverse_closure(sq, ["00", "10", "11"])
        cm = conc_of_hom(inclusion_hom(sub, sq))
        # only 0 goes to 0: phi(0) is empty and no phi(down j) is
        assert not cm.zero.any() and cm.images.any(axis=1).all()


class TestKernel:
    def test_injective_gives_zero(self, named):
        L = named["M:3"]
        assert kernel(Homomorphism.identity(L)) == Congruence.zero(L)

    def test_constant_gives_one(self, named):
        L, one = named["chain:2"], named["one"]
        f = Homomorphism(L, one, np.zeros(L.n, dtype=np.int32))
        assert kernel(f) == Congruence.one(L)

    def test_projection_kernel(self):
        sq = builtin("bool:2")
        pr = product_projections(sq)
        assert kernel(pr[0]) == principal_congruence(sq, "00", "01")


class TestBoolean:
    def test_chain3(self, named):
        con = con_lattice(named["chain:3"])
        assert is_boolean(con) and len(con.J.boolean_atoms()) == 3

    def test_n5_not_boolean(self, named):
        con = con_lattice(named["N5"])
        assert con.n == 5
        assert not is_boolean(con)

    def test_m3(self, named):
        con = con_lattice(named["M:3"])
        assert is_boolean(con) and len(con.J.boolean_atoms()) == 1


class TestCongruenceChains:
    def test_square_max_chain(self):
        sq = builtin("bool:2")
        sigma = is_congruence_chain(sq, ["00", "01", "11"])
        assert sigma is not None and len(sigma) == 2
        assert sigma[0] != sigma[1]

    def test_wrong_length(self):
        sq = builtin("bool:2")
        assert is_congruence_chain(sq, ["00", "11"]) is None

    def test_repeated_colour(self, named):
        # both steps of 0 < x1 < 1 in M3 generate the unique atom
        assert is_congruence_chain(named["M:3"], ["0", "x1", "1"]) is None

    def test_non_boolean_host_rejected(self, named):
        with pytest.raises(ConNotBoolean):
            is_congruence_chain(named["N5"], ["0", "x1", "1"])

    def test_direct_identity(self, named):
        c2 = named["chain:2"]
        xi = ConcMap.identity(JoinIrreducibles(c2))
        assert is_direct_congruence_chain(c2, ["0", "c1", "1"], xi, c2)

    def test_swapped_xi_not_direct(self, named):
        # J(Con chain:2) is its two atoms: the swap permutes the rows of images
        c2 = named["chain:2"]
        J = JoinIrreducibles(c2)
        xi = ConcMap(J, J, np.zeros(2, dtype=bool), J.leq.T[[1, 0]])
        assert xi.isomorphism
        assert not is_direct_congruence_chain(c2, ["0", "c1", "1"], xi, c2)

    def test_target_on_another_lattice_is_not_direct(self, named):
        # xi's target is J(Con chain:2), not J(Con) of the relabelled chain C
        c2 = named["chain:2"]
        C = validate_lattice(["a", "b", "c"], [("a", "b"), ("b", "c")])
        xi = ConcMap.identity(JoinIrreducibles(c2))
        assert is_direct_congruence_chain(c2, ["0", "c1", "1"], xi, c2)
        assert not is_direct_congruence_chain(c2, ["0", "c1", "1"], xi, C)

    def test_length_two_direct_or_dually_direct(self):
        # for any iso xi, a 3-element congruence chain matches one orientation
        # J(Con sq) and J(Con C) are their two atoms: xi sends 0 to 0 and
        # the atoms of Con sq onto those of Con C, in order or swapped
        sq = builtin("bool:2")
        Jsq = JoinIrreducibles(sq)
        dsq = dual(sq)
        C = builtin("chain:2")
        JC = JoinIrreducibles(C)
        for perm_atoms in (False, True):
            images = JC.leq.T[[1, 0]] if perm_atoms else JC.leq.T
            xi = ConcMap(Jsq, JC, np.zeros(2, dtype=bool), images)
            # J(Con dual sq) is J(Con sq), so xi serves the dual unchanged
            xi_dual = xi
            for chain in (["00", "01", "11"], ["00", "10", "11"]):
                fwd = is_direct_congruence_chain(sq, chain, xi, C)
                bwd = is_direct_congruence_chain(dsq, chain[::-1], xi_dual, C)
                assert fwd != bwd  # exactly one orientation is direct


class TestCpe:
    def test_whole_lattice(self, named):
        L = named["N5"]
        assert is_congruence_preserving_extension(L, L)

    def test_chain_is_congruence_chain_iff_cpe(self, small_lattices):
        # for a lattice with Boolean Con, a chain is a congruence chain
        # exactly when the lattice extends it congruence-preservingly
        import itertools
        for B in small_lattices:
            if B.n < 2 or B.n > 5:
                continue
            con = con_lattice(B)
            if not is_boolean(con):
                continue
            J = con.J
            for r in range(2, B.n + 1):
                for sub in itertools.combinations(range(B.n), r):
                    if not all(B.leq_i(a, b) or B.leq_i(b, a)
                               for a, b in itertools.combinations(sub, 2)):
                        continue
                    chain = [B.labels[i] for i in sorted(
                        sub, key=lambda i: int(B.heights[i]))]
                    as_chain = is_congruence_chain(B, chain, J) is not None
                    sublat, _ = subuniverse_closure(B, chain)
                    assert as_chain == is_congruence_preserving_extension(sublat, B)

    def test_bounds_in_chain(self, named):
        c2 = named["chain:2"]
        sub, _ = subuniverse_closure(c2, ["0", "1"])
        assert not is_congruence_preserving_extension(sub, c2)

    def test_maximal_chain_in_distributive(self, named):
        from critlat.lattice import maximal_chains
        for name in ("bool:2", "bool:3", "F22", "chain:3"):
            L = named[name]
            for chain in maximal_chains(L):
                sub, _ = subuniverse_closure(L, chain)
                assert is_congruence_preserving_extension(sub, L)

    def test_not_a_sublattice(self, named):
        other = validate_lattice(["0", "zz", "1"], [("0", "zz"), ("zz", "1")])
        with pytest.raises(NotASublattice):
            is_congruence_preserving_extension(other, named["M:3"])


class TestSimple:
    def test_known(self, named):
        assert is_simple(named["M:3"])
        assert is_simple(named["M:5"])
        assert not is_simple(named["N5"])
        assert is_simple(named["2"])
        assert not is_simple(named["one"])

    def test_against_con_size(self, small_lattices):
        for L in small_lattices:
            assert is_simple(L) == (con_lattice(L).n == 2 and L.n >= 2)

    def test_long_chain_stops_early(self, spy_on_j):
        # no join-irreducible element of a chain has a D edge, so is_simple
        # answers before closing D, and builds no J(Con L)
        L = builtin("chain:800")
        with spy_on_j() as spy:
            assert not is_simple(L)
        assert spy.call_count == 0
        assert min(timeit.repeat(lambda: is_simple(L), number=1, repeat=5)) < 0.05

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_against_the_members_of_j(self, corpus, named, data):
        factors = data.draw(st.lists(st.sampled_from([K for K in corpus if K.n <= 6]),
                                     min_size=1, max_size=2))
        L = product(*factors) if len(factors) > 1 else factors[0]
        for K in (named["one"], L):
            assert is_simple(K) == (len(JoinIrreducibles(K)) == 1)


class TestChainLemmas:
    def chains_of(self, L, max_len=4):
        out = []
        for els in itertools.combinations(range(L.n), 2):
            if L.leq_i(*els):
                out.append(els)
        for els in itertools.combinations(range(L.n), 3):
            a, b, c = els
            if L.leq_i(a, b) and L.leq_i(b, c):
                out.append(els)
        return out

    def test_decomposition_and_monotonicity(self, named):
        for name in ("chain:4", "bool:2", "N5", "F22"):
            L = named[name]
            J = JoinIrreducibles(L)
            for chain in self.chains_of(L):
                total = J.principal_masks(chain[0], chain[-1])
                steps = J.principal_masks(np.array(chain[:-1]), np.array(chain[1:]))
                assert not (steps & ~total).any()   # monotone in the interval
                assert (steps.any(axis=0) == total).all()   # steps join to the whole

    def test_duality_of_congruence_sets(self, corpus):
        for L in corpus:
            if L.n > 6:
                continue
            a = con_as_partition_set(con_lattice(L))
            b = con_as_partition_set(con_lattice(dual(L)))
            assert a == b


class TestQuotientInteraction:
    def test_projection_sends_principals_to_principals(self, named):
        for name in ("N5", "F22", "bool:2", "chain:3"):
            L = named[name]
            conL = con_lattice(L)
            for theta in conL.cons:
                if len(theta.blocks) == 1:
                    continue
                Q, proj = quotient(L, theta)
                cm = conc_of_hom(proj, conL.J)
                a, b = np.triu_indices(L.n, 1)
                img = cm.on_masks(conL.J.principal_masks(a, b))
                want = cm.target.principal_masks(proj.mapping[a], proj.mapping[b])
                assert (img == want).all()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_principal_congruence_lattice_laws(named, data):
    # on down-set masks: the join holds both pairs, and the lattice laws of
    # OR, AND and subset
    L = data.draw(st.sampled_from(
        [named[k] for k in ("N5", "F22", "bool:3", "chain:4", "M:4")]))
    J = JoinIrreducibles(L)
    pick = st.tuples(st.sampled_from(range(L.n)), st.sampled_from(range(L.n)))
    (a, b), (c, d) = data.draw(pick), data.draw(pick)
    s, t = J.principal_masks(np.array([a, c]), np.array([b, d]))
    join, meet = s | t, s & t
    assert not (s & ~join).any() and not (t & ~join).any()
    assert not (meet & ~s).any() and not (meet & ~t).any()
    assert ((s | meet) == s).all() and ((s & join) == s).all()     # absorption
    theta = J.congruences(join)[0]
    assert theta.block_of[a] == theta.block_of[b] and theta.block_of[c] == theta.block_of[d]


def _assert_con_matches_oracle(L):
    con, want = con_lattice(L), oracle_con(L)
    assert [t.block_of for t in con.cons] == want["cons"]
    M = con.masks
    assert (~(M[:, None, :] & ~M[None, :, :]).any(axis=2)).tolist() == want["leq"]
    index = {row.tobytes(): k for k, row in enumerate(M)}
    assert [[index[r.tobytes()] for r in row & M] for row in M] == want["meet"]
    assert [[index[r.tobytes()] for r in row | M] for row in M] == want["join"]
    # the atoms hold one member of J, the bounds none and all
    assert np.flatnonzero(M.sum(axis=1) == 1).tolist() == want["atoms"]
    assert (index[bytes(len(con.J))], index[b"\x01" * len(con.J)]) == \
        (want["bottom"], want["top"])
    m = len(want["cons"])
    complemented = [any(want["meet"][x][y] == want["bottom"]
                        and want["join"][x][y] == want["top"] for y in range(m))
                    for x in range(m)]
    ok = is_boolean(con)
    assert ok == all(complemented)
    if ok:
        assert [t.block_of for t in con.J.boolean_atoms()] == \
            [want["cons"][a] for a in want["atoms"]]
    assert is_simple(L) == (m == 2)
    assert (len(JoinIrreducibles(L).minimal()) == 1) == (len(want["atoms"]) == 1)
    return con, want


class TestDifferential:
    """Con from J(Con L) against the slow cover-closure oracle."""

    def test_con_matches_oracle_on_corpus(self, corpus):
        for L in corpus:
            if L.n <= 6:
                _assert_con_matches_oracle(L)

    def test_partition_validity_matches_brute_force(self, small_lattices):
        for L in small_lattices:
            if L.n > 5:
                continue
            cons = brute_congruences(L)
            for part in all_partitions(L.n):
                key = frozenset(frozenset(b) for b in part)
                try:
                    Congruence(L, part)
                    valid = True
                except NotACongruence:
                    valid = False
                assert valid == (key in cons)

    def test_congruence_join_matches_oracle(self, corpus):
        # every pair of congruences of every lattice of at most 5 elements:
        # OR of masks is the partition join, AND the common refinement and
        # subset the refinement order
        for L in corpus:
            if L.n > 5:
                continue
            con = con_lattice(L)
            for (s, p), (t, q) in itertools.product(zip(con.masks, con.cons), repeat=2):
                assert con.J.congruences(s | t)[0].block_of == \
                    oracle_partition_join(p.block_of, q.block_of)
                assert con.J.congruences(s & t)[0].block_of == \
                    canon_ids(zip(p.block_of, q.block_of))
                refines = all(q.block_of[i] == q.block_of[blk[0]] for blk in p.blocks for i in blk)
                assert (not (s & ~t).any()) == refines

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_products_and_homs_match_oracle(self, small_lattices, data):
        pool = [L for L in small_lattices if L.n <= 4]
        A, B = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
        P = product(A, B)
        conP, wantP = _assert_con_matches_oracle(P)
        for pr in product_projections(P):
            conF = con_lattice(pr.target)
            cm = conc_of_hom(pr, conP.J, conF.J)
            wantF = oracle_con(pr.target)
            assert _mapping(cm, conP, wantF) == oracle_conc_of_hom(pr, wantP, wantF)
        gens = data.draw(st.lists(st.sampled_from(P.labels), min_size=1, max_size=3))
        S, incl = subuniverse_closure(P, gens)
        conS = con_lattice(S)
        cm = conc_of_hom(incl, conS.J, conP.J)
        assert _mapping(cm, conS, wantP) == oracle_conc_of_hom(incl, oracle_con(S), wantP)
        for pr in product_projections(P):
            _assert_composite_agrees(incl, pr)


def _canonical(n, partitions):
    return sorted(partitions, key=lambda bo: (n - len(set(bo)), bo))


class TestDependencyRelation:
    """J(Con L) read off the dependency relation, against closures of the
    covers: every Theta(u, v) of a cover u < v is a member, and every
    member is one."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_members_order_and_partitions_match_closures(self, corpus, data):
        factors = data.draw(st.lists(st.sampled_from([K for K in corpus if K.n <= 5]),
                                     min_size=2, max_size=3))
        assume(np.prod([K.n for K in factors]) <= 40)
        L = product(*factors)
        J = JoinIrreducibles(L)
        want = _canonical(L.n, {oracle_closure(L, [c]) for c in L.covers})
        assert [t.block_of for t in J.cons] == want
        # each member is generated by (j_*, j) for the first such j in index order
        lower = {}
        for u, v in L.covers:
            lower.setdefault(v, []).append(u)
        ji = [(lo[0], j) for j, lo in sorted(lower.items()) if len(lo) == 1]
        assert list(J.pairs) == [next(p for p in ji if oracle_closure(L, [p]) == t)
                                 for t in want]
        # s refines t: each element is t-related to the first of its s-class
        assert J.leq.tolist() == [[all(t[i] == t[s.index(c)] for i, c in enumerate(s))
                                   for t in want] for s in want]
        chosen = data.draw(st.lists(st.booleans(), min_size=len(J), max_size=len(J)))
        picks = np.flatnonzero(chosen)
        mask = J.leq[:, picks].any(axis=1)
        assert J.congruences(mask)[0].block_of == \
            oracle_closure(L, [J.pairs[a] for a in picks])

    def test_meet_irreducibles_match_oracle(self, corpus):
        for L in corpus:
            if L.n > 6:
                continue
            want = oracle_con(L)
            cons, leq = want["cons"], want["leq"]
            got = JoinIrreducibles(L).meet_irreducibles()
            # theta is meet-irreducible with unique upper cover star
            covers = {}
            for x in range(len(cons)):
                above = [y for y in range(len(cons)) if y != x and leq[x][y]]
                covers[x] = [y for y in above if not any(z != y and leq[z][y] for z in above)]
            expected = [(cons[x], cons[ys[0]]) for x, ys in covers.items() if len(ys) == 1]
            assert [(lo.block_of, hi.block_of) for lo, hi in got] == expected


_ORACLE = {}


def _oracle(L):
    """(con_lattice(L), oracle_con(L)), computed once per lattice object."""
    if id(L) not in _ORACLE:
        _ORACLE[id(L)] = (L, con_lattice(L), oracle_con(L))
    return _ORACLE[id(L)][1:]


def _mapping(cm, cs, wt):
    """For each congruence of cs, the index among the oracle's congruences
    wt of its image under cm, read off the image's partition."""
    index = {bo: k for k, bo in enumerate(wt["cons"])}
    return [index[t.block_of] for t in _images(cm, cs)]


def _assert_conc_agrees(f):
    """conc_of_hom(f), held on J, against the Con-level oracle: its mapping,
    isomorphism and equal_map.  Returns (map, mapping)."""
    (cs, ws), (ct, wt) = _oracle(f.source), _oracle(f.target)
    cm = conc_of_hom(f, cs.J, ct.J)
    m = _mapping(cm, cs, wt)
    assert m == oracle_conc_of_hom(f, ws, wt)
    # the constant maps: everything to 0 (all masks empty), and everything
    # to 1 (all masks full)
    def constant(full):
        return ConcMap(cs.J, ct.J, np.full(len(ct.J), full),
                       np.full((len(cs.J), len(ct.J)), full))

    for om, other in ((cm, m), (constant(False), [wt["bottom"]] * cs.n),
                      (constant(True), [wt["top"]] * cs.n)):
        assert _mapping(om, cs, wt) == other
        assert cm.equal_map(om) == (other == m)
        assert om.isomorphism == oracle_isomorphism(ws, wt, other)
    return cm, m


def _assert_composite_agrees(f, g, known=None):
    """Conc g . Conc f, one Boolean matrix product, against the composite of
    the Con-level mappings and against Conc (g . f)."""
    known = known or {}
    cf, mf = known.get(id(f)) or _assert_conc_agrees(f)
    cg, mg = known.get(id(g)) or _assert_conc_agrees(g)
    (ca, _), (cc, wc) = _oracle(f.source), _oracle(g.target)
    both = cg.compose(cf)
    assert _mapping(both, ca, wc) == [mg[k] for k in mf]
    assert both.equal_map(conc_of_hom(g.compose(f), ca.J, cc.J))


class TestConcMapOnJ:
    """Conc maps held on J(Con) against the Con-level computation."""

    def test_quotients_and_inclusions_on_corpus(self, corpus):
        for L in corpus:
            if L.n > 6:
                continue
            quotients = [quotient(L, t)[1] for t in con_lattice(L).cons]
            inclusions = {}
            for a, b in itertools.combinations(L.labels, 2):
                S, incl = subuniverse_closure(L, [a, b])
                inclusions.setdefault(S.labels, incl)
            known = {id(f): _assert_conc_agrees(f)
                     for f in quotients + list(inclusions.values())}
            for incl in inclusions.values():
                for proj in quotients:
                    _assert_composite_agrees(incl, proj, known)

    def test_dual_has_the_same_join_irreducibles(self, corpus):
        for L in corpus:
            J, Jd = JoinIrreducibles(L), JoinIrreducibles(dual(L))
            assert [t.block_of for t in Jd.cons] == [t.block_of for t in J.cons]
            assert (Jd.leq == J.leq).all()


def _oracle_join_irreducibles(want):
    """Members of an oracle_con result with exactly one lower cover."""
    leq = want["leq"]
    m = len(leq)
    out = []
    for x in range(m):
        below = [y for y in range(m) if y != x and leq[y][x]]
        covers = [y for y in below if not any(z != y and leq[y][z] for z in below)]
        if len(covers) == 1:
            out.append(x)
    return out


@pytest.fixture(scope="module")
def con_pairs():
    """(con_lattice, oracle_con) by the names of the factors of the lattice."""
    return {}


def _read_xi(CS, CT, mapping):
    """The xi that lifting_from_json reads from a bundle of one node, the
    lattice of CS in the source and that of CT in the target, listing
    (CS.cons[k], CT.cons[mapping[k]]) for each k."""
    def diagram(L):
        return {"poset": {"nodes": ["n"], "leq": []},
                "lattices": {"n": lattice_to_json(L)}, "maps": {}}

    pairs = [[s.label_blocks(), CT.cons[y].label_blocks()] for s, y in zip(CS.cons, mapping)]
    return lifting_from_json({"schema": 1, "source": diagram(CS.J.host),
                              "target": diagram(CT.J.host), "xi": {"n": pairs}}).xi["n"]


class TestConcMapChecks:
    """The join check of a Conc map read from a bundle, done on J(Con L),
    against the m^2 join-table oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_join_preserving_and_isomorphism_match_oracle(
            self, small_lattices, con_pairs, data):
        def draw_con():
            if data.draw(st.booleans()):
                pool = [L for L in small_lattices if L.n <= 4]
                factors = data.draw(st.lists(st.sampled_from(pool),
                                             min_size=2, max_size=2))
            else:
                factors = [data.draw(st.sampled_from(small_lattices))]
            key = tuple(L.name for L in factors)
            if key not in con_pairs:
                L = product(*factors) if len(factors) == 2 else factors[0]
                con, want = con_lattice(L), oracle_con(L)
                assert [t.block_of for t in con.cons] == want["cons"]
                con_pairs[key] = con, want
            return con_pairs[key]

        CS, ws = draw_con()
        same = data.draw(st.booleans())
        CT, wt = (CS, ws) if same else draw_con()
        kind = data.draw(st.sampled_from(["arbitrary", "join", "changed"]))
        if kind == "arbitrary":
            mapping = data.draw(st.lists(st.integers(0, CT.n - 1),
                                         min_size=CS.n, max_size=CS.n))
        else:
            # phi(x) = phi(0) v V{phi(j) : j in J, j <= x} preserves joins
            J = _oracle_join_irreducibles(ws)
            zero = data.draw(st.integers(0, CT.n - 1))
            if same and data.draw(st.booleans()):
                images = dict(zip(J, data.draw(st.permutations(J))))
            else:
                images = {j: data.draw(st.integers(0, CT.n - 1)) for j in J}
            mapping = []
            for x in range(CS.n):
                y = zero
                for j in J:
                    if ws["leq"][j][x]:
                        y = wt["join"][y][images[j]]
                mapping.append(y)
            assert oracle_join_preserving(ws, wt, mapping)
            if kind == "changed" and CT.n > 1:
                x = data.draw(st.integers(0, CS.n - 1))
                mapping[x] = data.draw(st.integers(0, CT.n - 1).filter(
                    lambda y: y != mapping[x]))
        cm = _read_xi(CS, CT, mapping)
        assert cm.join_preserving == oracle_join_preserving(ws, wt, mapping)
        assert cm.isomorphism == oracle_isomorphism(ws, wt, mapping)
        if cm.join_preserving:
            assert _mapping(cm, CS, wt) == list(mapping)


def _assert_principal_masks(J, L, pairs):
    """J.principal_masks on the pairs of elements of L, where J is J(Con L)
    or J(Con dual L), against the oracle's closure of each pair."""
    a, b = (np.array(x, dtype=np.intp) for x in zip(*pairs))
    want = np.array([J.mask_of(oracle_closure(L, [p])) for p in pairs],
                    dtype=bool).reshape(len(pairs), len(J))
    assert (J.principal_masks(a, b) == want).all()


class TestPrincipalMasks:
    """Theta(a, b) read off J(Con L), with no closure, against the oracle."""

    def test_every_pair_of_the_corpus(self, corpus):
        for L in corpus:
            _assert_principal_masks(JoinIrreducibles(L), L,
                                    list(itertools.product(range(L.n), repeat=2)))

    def test_pairs_read_on_the_dual(self, corpus):
        # L and its dual have the same congruences, and J(Con L) answers for
        # both: duality swaps a ^ b and a v b
        for L in corpus:
            _assert_principal_masks(JoinIrreducibles(L), dual(L),
                                    list(itertools.product(range(L.n), repeat=2)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_products(self, small_lattices, data):
        A, B = data.draw(st.lists(st.sampled_from(small_lattices), min_size=2, max_size=2))
        P = product(A, B)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, P.n - 1),
                                             st.integers(0, P.n - 1)),
                                   min_size=1, max_size=30))
        _assert_principal_masks(JoinIrreducibles(P), P, pairs)

    def test_one_pair_gives_one_row(self, named):
        L = named["N5"]
        J = JoinIrreducibles(L)
        a, b = L.index("x1"), L.index("1")
        assert (J.principal_masks(a, b) == J.principal_masks([a], [b])[0]).all()

    def test_conc_of_hom_builds_no_j(self, spy_on_j):
        P = product(builtin("N5"), builtin("M:3"))
        JP = JoinIrreducibles(P)
        for pr in product_projections(P):
            JF = JoinIrreducibles(pr.target)
            with spy_on_j() as spy:
                cm = conc_of_hom(pr, JP, JF)
            assert spy.call_count == 0
            # J(Con) of the duals list the same members: the same map
            dm = conc_of_hom(pr, JoinIrreducibles(dual(P)),
                             JoinIrreducibles(dual(pr.target)))
            assert dm.equal_map(cm)

    def test_conc_of_hom_refuses_another_lattice_s_j(self):
        f = Homomorphism.identity(builtin("chain:3"))
        J, other = JoinIrreducibles(f.source), JoinIrreducibles(builtin("bool:2"))
        with pytest.raises(HostMismatch):
            conc_of_hom(f, other, J)
        with pytest.raises(HostMismatch):
            conc_of_hom(f, J, other)


class TestConcMemo:
    """One J per lattice object and one ConcMap per (map, J source, J
    target); objects of one shape, or maps of one content, share the
    read-only arrays."""

    def test_one_j_per_object(self, spy_on_j):
        memo = ConcMemo()
        A, B = builtin("chain:3"), builtin("chain:3")    # one shape, two objects
        with spy_on_j() as spy:
            JA, JB = memo.J(A), memo.J(B)
            assert memo.J(A) is JA and memo.J(B) is JB
        assert spy.call_count == 1
        assert JA.host is A and JB.host is B and JB.leq is JA.leq
        # the identities of one shape share their arrays
        ia, ib = ConcMap.identity(JA), ConcMap.identity(JB)
        assert ia.zero is ib.zero and ia.images is ib.images
        assert ia.equal_map(ConcMap(JA, JA, np.zeros(len(JA), dtype=bool), JA.leq.T))

    def test_one_conc_per_map_and_js(self):
        memo = ConcMemo()
        A, B = builtin("chain:3"), builtin("chain:3")
        JA, JB = memo.J(A), memo.J(B)
        f = Homomorphism._trusted(A, A, [0, 0, 2, 3])
        cm = memo.conc(f, JA, JA)
        assert memo.conc(f, JA, JA) is cm and cm.equal_map(conc_of_hom(f))
        # another map object of the same content gets its own ConcMap, over
        # the same arrays and on its own J
        g = Homomorphism._trusted(B, B, [0, 0, 2, 3])
        other = memo.conc(g, JB, JB)
        assert other is not cm and (other.source, other.target) == (JB, JB)
        assert other.zero is cm.zero and other.images is cm.images
        # J of a lattice of the same shape but other labels is no J of g's
        # source, although the map's content is known
        C = validate_lattice(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        JC = memo.J(C)
        assert JC.leq is JA.leq
        with pytest.raises(HostMismatch):
            memo.conc(g, JC, JB)

    def test_lazy_product_never_enters(self):
        memo = ConcMemo()
        P = ProductLattice([builtin("M:3"), builtin("2")])
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match="^congruence computations need a dense"):
                memo.J(P)
