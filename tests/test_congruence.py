import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critlat.congruence import (
    _join_ids,
    ConcMap,
    Congruence,
    JoinIrreducibles,
    con_lattice,
    conc_of_hom,
    congruence_join,
    congruence_meet,
    inclusion_hom,
    is_boolean,
    is_congruence_chain,
    is_congruence_preserving_extension,
    is_direct_congruence_chain,
    is_simple,
    kernel,
    principal_congruence,
)
from critlat.errors import ConNotBoolean, HostMismatch, NotACongruence, NotASublattice
from critlat.lattice import (
    Homomorphism,
    builtin,
    dual,
    is_distributive,
    product,
    product_projections,
    quotient,
    subuniverse_closure,
    validate_lattice,
)

from oracles import (
    all_partitions,
    brute_congruences,
    canon_ids,
    con_as_partition_set,
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
    def test_neutral(self, named):
        L = named["N5"]
        t = principal_congruence(L, "x1", "x2")
        assert congruence_join(t, Congruence.zero(L)) == t
        assert congruence_meet(t, Congruence.one(L)) == t

    def test_chain_steps_join_to_one(self, named):
        L = named["chain:2"]
        t1 = principal_congruence(L, "0", "c1")
        t2 = principal_congruence(L, "c1", "1")
        assert congruence_join(t1, t2) == Congruence.one(L)

    def test_square_atoms_meet_to_zero(self):
        sq = builtin("bool:2")
        t1 = principal_congruence(sq, "00", "01")
        t2 = principal_congruence(sq, "00", "10")
        assert congruence_meet(t1, t2) == Congruence.zero(sq)

    def test_host_mismatch(self, named):
        with pytest.raises(HostMismatch):
            congruence_join(Congruence.zero(named["M:3"]),
                            Congruence.zero(named["N5"]))


class TestConLattice:
    def test_equals_brute_enumeration(self, named):
        for name in ("2", "chain:2", "chain:3", "M:3", "N5", "bool:2", "F22"):
            L = named[name]
            assert con_as_partition_set(con_lattice(L)) == brute_congruences(L)

    def test_chain_con_is_boolean(self, named):
        for n in (1, 2, 3, 4, 5):
            con = con_lattice(named[f"chain:{n}"])
            ok, atoms, _ = is_boolean(con)
            assert ok and len(atoms) == n and con.n == 2 ** n

    def test_m3_simple(self, named):
        assert con_lattice(named["M:3"]).n == 2

    def test_one_element(self, named):
        assert con_lattice(named["one"]).n == 1

    def test_con_distributive_sanity(self, corpus):
        for L in corpus:
            if L.n > 6:
                continue
            con = con_lattice(L)
            ok, _ = is_distributive(con.as_lattice())
            assert ok

    def test_invalid_partition_rejected(self, named):
        with pytest.raises(NotACongruence):
            Congruence.from_label_blocks(named["N5"], [["0", "x1"], ["x2"], ["x3"], ["1"]])


class TestConcOfHom:
    def test_identity_functor_law(self, named):
        L = named["N5"]
        cm = conc_of_hom(Homomorphism.identity(L))
        con = con_lattice(L)
        assert (cm.mapping_on(con, con) == np.arange(con.n)).all()

    def test_two_into_chain(self, named):
        two, c2 = named["2"], named["chain:2"]
        f = Homomorphism.from_labels(two, c2, {"0": "0", "1": "1"})
        cm = conc_of_hom(f)
        assert cm.apply(Congruence.one(two)) == Congruence.one(c2)

    def test_inclusion_into_square_hits_distinct_atoms(self):
        sq = builtin("bool:2")
        sub, _ = subuniverse_closure(sq, ["00", "01", "11"])
        cm = conc_of_hom(inclusion_hom(sub, sq))
        consub, consq = con_lattice(sub), con_lattice(sq)
        mapping = cm.mapping_on(consub, consq)
        images = {int(mapping[a]) for a in consub.atoms}
        assert images == set(consq.atoms)

    def test_functoriality_on_composites(self, named):
        sq = builtin("bool:2")
        sub, _ = subuniverse_closure(sq, ["00", "01", "11"])
        f = inclusion_hom(sub, sq)
        theta = principal_congruence(sq, "00", "01")
        Q, proj = quotient(sq, theta)
        g = proj
        cf = conc_of_hom(f)
        cg = conc_of_hom(g, cf.target)
        composite = conc_of_hom(g.compose(f), cf.source, cg.target)
        assert composite.equal_map(cg.compose(cf))

    def test_injective_separates_zero(self, named):
        sq = builtin("bool:2")
        sub, _ = subuniverse_closure(sq, ["00", "10", "11"])
        cm = conc_of_hom(inclusion_hom(sub, sq))
        assert cm.separates_zero


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
        ok, atoms, _ = is_boolean(con_lattice(named["chain:3"]))
        assert ok and len(atoms) == 3

    def test_n5_not_boolean(self, named):
        con = con_lattice(named["N5"])
        assert con.n == 5
        ok, _, witness = is_boolean(con)
        assert not ok and witness is not None

    def test_m3(self, named):
        ok, atoms, _ = is_boolean(con_lattice(named["M:3"]))
        assert ok and len(atoms) == 1


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
        c2 = named["chain:2"]
        con = con_lattice(c2)
        perm = np.arange(con.n)
        a, b = con.atoms
        perm[a], perm[b] = b, a
        xi = ConcMap.from_mapping(con, con, perm)
        assert xi.isomorphism
        assert not is_direct_congruence_chain(c2, ["0", "c1", "1"], xi, c2)

    def test_length_two_direct_or_dually_direct(self):
        # for any iso xi, a 3-element congruence chain matches one orientation
        sq = builtin("bool:2")
        consq = con_lattice(sq)
        dsq = dual(sq)
        C = builtin("chain:2")
        conC = con_lattice(C)
        for perm_atoms in (False, True):
            mapping = np.zeros(consq.n, dtype=np.int32)
            a0, a1 = consq.atoms
            t0, t1 = conC.atoms
            if perm_atoms:
                a0, a1 = a1, a0
            mapping[consq.bottom_i] = conC.bottom_i
            mapping[consq.top_i] = conC.top_i
            mapping[a0], mapping[a1] = t0, t1
            xi = ConcMap.from_mapping(consq, conC, mapping)
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
            if not is_boolean(con)[0]:
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
            for chain in self.chains_of(L):
                labels = [L.labels[i] for i in chain]
                total = principal_congruence(L, labels[0], labels[-1])
                acc = Congruence.zero(L)
                for a, b in zip(labels, labels[1:]):
                    step = principal_congruence(L, a, b)
                    assert step.leq(total)          # monotone in the interval
                    acc = congruence_join(acc, step)
                assert acc == total                  # steps join to the whole

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
                if theta.is_one:
                    continue
                Q, proj = quotient(L, theta)
                cm = conc_of_hom(proj, conL.J)
                for a in range(L.n):
                    for b in range(a + 1, L.n):
                        img = cm.apply(principal_congruence(
                            L, L.labels[a], L.labels[b]))
                        want = principal_congruence(
                            Q, proj.apply(L.labels[a]), proj.apply(L.labels[b]))
                        assert img == want


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_principal_congruence_lattice_laws(named, data):
    L = data.draw(st.sampled_from(
        [named[k] for k in ("N5", "F22", "bool:3", "chain:4", "M:4")]))
    pick = st.tuples(st.sampled_from(L.labels), st.sampled_from(L.labels))
    (a, b), (c, d) = data.draw(pick), data.draw(pick)
    s = principal_congruence(L, a, b)
    t = principal_congruence(L, c, d)
    join = congruence_join(s, t)
    meet = congruence_meet(s, t)
    assert s.leq(join) and t.leq(join)
    assert meet.leq(s) and meet.leq(t)
    assert congruence_join(s, meet) == s      # absorption
    assert congruence_meet(s, join) == s
    assert join.same(L.index(a), L.index(b)) and join.same(L.index(c), L.index(d))


def _assert_con_matches_oracle(L):
    con, want = con_lattice(L), oracle_con(L)
    assert [t.block_of for t in con.cons] == want["cons"]
    M = con.masks
    assert (~(M[:, None, :] & ~M[None, :, :]).any(axis=2)).tolist() == want["leq"]
    index = {row.tobytes(): k for k, row in enumerate(M)}
    assert [[index[r.tobytes()] for r in row & M] for row in M] == want["meet"]
    assert [[index[r.tobytes()] for r in row | M] for row in M] == want["join"]
    A = con.as_lattice()
    assert [[A.leq_i(x, y) for y in range(A.n)] for x in range(A.n)] == want["leq"]
    assert list(con.atoms) == want["atoms"]
    assert (con.bottom_i, con.top_i) == (want["bottom"], want["top"])
    m = len(want["cons"])
    complemented = [any(want["meet"][x][y] == want["bottom"]
                        and want["join"][x][y] == want["top"] for y in range(m))
                    for x in range(m)]
    ok, atoms, witness = is_boolean(con)
    assert ok == all(complemented)
    if ok:
        assert [t.block_of for t in atoms] == [want["cons"][a] for a in want["atoms"]]
    else:
        assert witness == ("not complemented", con.cons[complemented.index(False)])
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1,
                    max_size=9))
    def test_partition_join_matches_oracle(self, pairs):
        a, b = canon_ids(p[0] for p in pairs), canon_ids(p[1] for p in pairs)
        assert _join_ids(a, b) == oracle_partition_join(a, b)

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
            assert cm.mapping_on(conP, conF).tolist() == \
                oracle_conc_of_hom(pr, wantP, oracle_con(pr.target))
        gens = data.draw(st.lists(st.sampled_from(P.labels), min_size=1, max_size=3))
        S, incl = subuniverse_closure(P, gens)
        conS = con_lattice(S)
        cm = conc_of_hom(incl, conS.J, conP.J)
        assert cm.mapping_on(conS, conP).tolist() == oracle_conc_of_hom(incl, oracle_con(S), wantP)
        for pr in product_projections(P):
            _assert_composite_agrees(incl, pr)


_ORACLE = {}


def _oracle(L):
    """(con_lattice(L), oracle_con(L)), computed once per lattice object."""
    if id(L) not in _ORACLE:
        _ORACLE[id(L)] = (L, con_lattice(L), oracle_con(L))
    return _ORACLE[id(L)][1:]


def _assert_conc_agrees(f):
    """conc_of_hom(f), held on J, against the Con-level oracle: its mapping,
    isomorphism, separates_zero and equal_map.  Returns (map, mapping)."""
    (cs, ws), (ct, wt) = _oracle(f.source), _oracle(f.target)
    cm = conc_of_hom(f, cs.J, ct.J)
    m = cm.mapping_on(cs, ct).tolist()
    assert m == oracle_conc_of_hom(f, ws, wt)
    # the constant maps: phi(0) = 0 everywhere, and phi(0) = 1
    for other in (m, [wt["bottom"]] * cs.n, [wt["top"]] * cs.n):
        om = cm if other is m else ConcMap.from_mapping(cs, ct, other)
        assert cm.equal_map(om) == (other == m)
        assert om.isomorphism == oracle_isomorphism(ws, wt, other)
        to_zero = [k for k in range(cs.n) if other[k] == wt["bottom"]]
        assert om.separates_zero == (to_zero == [ws["bottom"]])
    return cm, m


def _assert_composite_agrees(f, g, known=None):
    """Conc g . Conc f, one Boolean matrix product, against the composite of
    the Con-level mappings and against Conc (g . f)."""
    known = known or {}
    cf, mf = known.get(id(f)) or _assert_conc_agrees(f)
    cg, mg = known.get(id(g)) or _assert_conc_agrees(g)
    (ca, _), (cc, _) = _oracle(f.source), _oracle(g.target)
    both = cg.compose(cf)
    assert both.mapping_on(ca, cc).tolist() == [mg[k] for k in mf]
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


class TestConcMapChecks:
    """ConcMap.from_mapping's join check on J(Con L) against the m^2
    join-table oracle."""

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
        cm = ConcMap.from_mapping(CS, CT, mapping)
        assert cm.join_preserving == oracle_join_preserving(ws, wt, mapping)
        assert cm.isomorphism == oracle_isomorphism(ws, wt, mapping)
        if cm.join_preserving:
            assert cm.mapping_on(CS, CT).tolist() == list(mapping)
