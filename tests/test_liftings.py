import json
from unittest import mock

import numpy as np
import pytest

from critlat import liftings
from critlat.congruence import (
    ConcMap,
    Congruence,
    JoinIrreducibles,
    con_lattice,
    conc_of_hom,
    kernel,
    principal_congruence,
)
from critlat.diagrams import (
    EMPTY,
    TOP,
    FinitePoset,
    LatticeDiagram,
    chain_diagram,
    chain_diagram_of_partial,
    directing_diagram,
    law_failures,
    node_of,
)
from critlat.errors import (
    BudgetExceeded,
    ConNotBoolean,
    CritlatError,
    HypothesisUnmet,
    MissingDirectChain,
)
from critlat.lattice import Homomorphism, builtin, is_distributive, product, product_projections
from critlat.liftings import (
    Lifting,
    check_directing_property,
    direct_chains_at,
    dual_lifting,
    extract_embedding,
    extract_embedding_auto,
    find_congruence_chains,
    identity_lifting,
    lifting_from_json,
    lifting_to_json,
    retraction_congruence_chain,
    verify_lifting,
)

from oracles import oracle_congruence_chains

C1, C2, C3 = ("0", "x1", "1"), ("0", "x2", "1"), ("0", "x3", "1")


def con_pair(lift, node):
    """Con of the source and of the target lattice of a lifting at node."""
    return (con_lattice(lift.source.lattices[node]),
            con_lattice(lift.xi[node].target.host))


def swap_two_atoms(lift, node):
    """Replace xi at node by the identity on Con with two atoms swapped."""
    con_s, con_t = con_pair(lift, node)
    perm = np.arange(con_s.n)
    a, b = con_s.atoms
    perm[a], perm[b] = b, a
    lift.xi[node] = ConcMap.from_mapping(con_s, con_t, perm)


def unshared_naturality_failures(lift):
    """The naturality squares of verify_lifting with nothing shared:
    conc_of_hom per edge and both composites built."""
    B, S, xi = lift.source, lift.target, lift.xi
    return [("naturality", p, q) for (p, q) in B.poset.pairs()
            if not xi[q].compose(conc_of_hom(B.maps[(p, q)], xi[p].source, xi[q].source))
            .equal_map(S.maps[(p, q)].compose(xi[p]))]


def m3_identity_lifting(named):
    D, _ = chain_diagram_of_partial(named["M:3"], named["M:3"].labels)
    return identity_lifting(D)


class TestVerify:
    def test_identity_lifting_valid(self, named):
        assert verify_lifting(m3_identity_lifting(named)).ok

    def test_dual_lifting_valid(self, named):
        assert verify_lifting(dual_lifting(m3_identity_lifting(named))).ok

    def test_large_boolean_top_node(self):
        # bool:8 has 256 elements but |J| = 8: J(Con) bounds a node by its cells
        B = builtin("bool:8")
        chain = tuple(format((1 << k) - 1, "08b") for k in range(9))
        lift = identity_lifting(chain_diagram(B, [chain]))
        assert len(lift.target.J[TOP]) == 8
        assert verify_lifting(lift).ok

    def test_xi_atom_swap_detected(self, named):
        lift = m3_identity_lifting(named)
        node = node_of(C1)
        swap_two_atoms(lift, node)
        rep = verify_lifting(lift)
        assert not rep.ok
        assert rep.first_failure[0] == "naturality"

    def test_xi_non_iso_detected(self, named):
        lift = m3_identity_lifting(named)
        node = node_of(C1)
        con_s, con_t = con_pair(lift, node)
        collapse = np.zeros(con_s.n, dtype=np.int32)
        lift.xi[node] = ConcMap.from_mapping(con_s, con_t, collapse)
        rep = verify_lifting(lift)
        assert not rep.ok
        assert any(f[0] in ("xi-not-iso",) for f in rep.failures)

    def test_edge_corruption_detected(self, named):
        # the corrupted diagram cannot be built; the law walk names the two
        # triangles through the changed edge
        B = m3_identity_lifting(named).source
        node = node_of(C1)
        f = B.maps[(node, TOP)]
        bad = f.mapping.copy()
        bad[1] = (bad[1] + 1) % f.target.n   # send x1 somewhere else
        maps = dict(B.maps)
        maps[(node, TOP)] = Homomorphism._trusted(f.source, f.target, bad)
        assert list(law_failures(B.poset, B.lattices, maps)) == [
            ("commutativity", node, node_of(C1, C2), TOP),
            ("commutativity", node, node_of(C1, C3), TOP)]
        with pytest.raises(CritlatError, match="diagram fails commutativity at"):
            LatticeDiagram(B.poset, B.lattices, maps)

    def test_target_edge_replaced_fails_naturality(self, named):
        # the zero map in place of Conc of the inclusion of a chain into M3:
        # the target's laws are not checked, its one square fails
        lift = m3_identity_lifting(named)
        pq = (node_of(C1), TOP)
        JP, JQ = lift.target.J[pq[0]], lift.target.J[TOP]
        lift.target.maps[pq] = ConcMap(JP, JQ, np.zeros(len(JQ), dtype=bool),
                                       np.zeros((len(JP), len(JQ)), dtype=bool))
        assert verify_lifting(lift).failures == [("naturality", *pq)]

    @pytest.mark.parametrize("chain", [C1, C2, C3])
    def test_shared_conc_hides_no_target_edge(self, named, chain):
        # the three edges from the bottom node into the 3-element chains have
        # one Conc, computed once; the one target map made wrong fails alone
        lift = m3_identity_lifting(named)
        pq = (EMPTY, node_of(chain))
        s = lift.target.maps[pq]
        images = s.images.copy()
        images[0, 1] = False    # Theta(0, 1) of the bottom now misses the top step
        lift.target.maps[pq] = ConcMap(s.source, s.target, s.zero, images)
        assert verify_lifting(lift).failures == [("naturality", *pq)]
        assert unshared_naturality_failures(lift) == [("naturality", *pq)]

    def test_shared_conc_hides_no_xi(self, named):
        # xi at one of the three 3-element chain nodes swaps its two atoms:
        # the squares out of it into the pair nodes fail, and nothing at the
        # other two nodes of its shape
        lift = m3_identity_lifting(named)
        node = node_of(C2)
        swap_two_atoms(lift, node)
        failures = verify_lifting(lift).failures
        assert failures == [("naturality", node, node_of(C1, C2)),
                            ("naturality", node, node_of(C2, C3))]
        assert failures == unshared_naturality_failures(lift)

    def test_target_edge_deleted_fails_naturality(self, named):
        lift = m3_identity_lifting(named)
        pq = (node_of(C1), TOP)
        del lift.target.maps[pq]
        assert verify_lifting(lift).failures == [("naturality", *pq)]

    def test_missing_edge_is_noted_not_raised(self, named):
        B = m3_identity_lifting(named).source
        maps = dict(B.maps)
        del maps[(node_of(C1), TOP)]
        # the triangles through the missing edge are skipped, not raised on
        assert list(law_failures(B.poset, B.lattices, maps)) == [
            ("missing-edge", node_of(C1), TOP)]
        with pytest.raises(CritlatError, match=r"fails missing-edge at \{0<x1<1\}, T$"):
            LatticeDiagram(B.poset, B.lattices, maps)

    def test_edge_out_of_large_node_is_checked(self):
        # two 301-element chains joined by a map that swaps two neighbours
        poset = FinitePoset(["a", "b"], [("a", "b")])
        C = builtin("chain:300")
        swap = np.arange(C.n)
        swap[[150, 151]] = swap[[151, 150]]
        ident = Homomorphism.identity(C)
        maps = {("a", "a"): ident, ("b", "b"): ident,
                ("a", "b"): Homomorphism._trusted(C, C, swap)}
        assert list(law_failures(poset, {"a": C, "b": C}, maps)) == [("edge-not-hom", "a", "b")]
        with pytest.raises(CritlatError, match="fails edge-not-hom at a, b"):
            LatticeDiagram(poset, {"a": C, "b": C}, maps)

    def test_xi_out_of_another_lattice_is_wrong_shape(self):
        # a lawful diagram of 4-element chains with the xi of the lifting of
        # a diagram of 2: the naturality squares are never read
        poset = FinitePoset(["a", "b"], [("a", "b")])

        def diagram(L):
            ident = Homomorphism.identity(L)
            return LatticeDiagram(poset, {"a": L, "b": L},
                                  {("a", "a"): ident, ("b", "b"): ident, ("a", "b"): ident})

        lift = identity_lifting(diagram(builtin("2")))
        rep = verify_lifting(Lifting(diagram(builtin("chain:3")), lift.target, lift.xi))
        assert rep.failures == [("xi-wrong-shape", "a"), ("xi-wrong-shape", "b")]
        # xi out of a lattice of the node's size: the 4-element chain:3 and
        # bool:2, and the 5-element M:3, whose xi once let a diagram of
        # chain:4 pass as a lifting of Conc(M3)
        for given, node in (("bool:2", "chain:3"), ("M:3", "chain:4")):
            lift = identity_lifting(diagram(builtin(given)))
            rep = verify_lifting(Lifting(diagram(builtin(node)), lift.target, lift.xi))
            assert rep.failures == [("xi-wrong-shape", "a"), ("xi-wrong-shape", "b")]
        # the xi of a lifting pass to its dual unchanged
        lift = identity_lifting(diagram(builtin("N5")))
        assert verify_lifting(dual_lifting(lift)).ok


class TestFindChains:
    def test_square_has_two(self):
        sq = builtin("bool:2")
        ws = find_congruence_chains(sq, "00", "11")
        assert [w.elements for w in ws] == [("00", "01", "11"), ("00", "10", "11")]

    def test_chain_steps_exhaust_atoms(self, named):
        for name in ("chain:3", "bool:2", "F22"):
            L = named[name]
            con = con_lattice(L)
            for w in find_congruence_chains(L, L.bottom, L.top, J=con.J):
                total = Congruence.zero(L)
                for t in w.sigma:
                    total = total.join(t)
                assert total == Congruence.one(L)

    def test_same_endpoints_empty(self):
        assert find_congruence_chains(builtin("bool:2"), "00", "00") == []

    def test_steps_need_not_be_covers(self, named):
        # M3 is simple: the single congruence chain from 0 to 1 is the
        # non-saturated two-element chain
        ws = find_congruence_chains(named["M:3"], "0", "1")
        assert [w.elements for w in ws] == [("0", "1")]

    def test_non_boolean_rejected(self, named):
        with pytest.raises(ConNotBoolean):
            find_congruence_chains(named["N5"], "0", "1")

    def test_agrees_with_oracle(self, corpus):
        # every pair of elements of every distributive corpus lattice (whose
        # Con is Boolean): the same chains, steps and order as the filter
        # over all strict chains
        for L in corpus:
            if not is_distributive(L)[0]:
                continue
            want = oracle_congruence_chains(L)
            for u in L.labels:
                for v in L.labels:
                    got = [(w.elements, tuple(t.block_of for t in w.sigma))
                           for w in find_congruence_chains(L, u, v)]
                    assert got == want.get((u, v), []), (L, u, v)

    def test_long_chain_needs_no_recursion(self, recursion_limit_above_caller):
        # the search keeps its own stack: the 60 steps of chain:60 are taken
        # with the recursion limit only 40 frames above the caller
        L = builtin("chain:60")
        with recursion_limit_above_caller(40):
            ws = find_congruence_chains(L, "0", "1")
        assert [w.elements for w in ws] == [L.labels]

    def test_steps_are_read_off_j(self, spy_on_j):
        # one J(Con L) is built, and every step of the search is a lookup in it
        L = builtin("chain:60")
        with spy_on_j() as spy:
            ws = find_congruence_chains(L, "0", "1")
        assert [w.elements for w in ws] == [L.labels]
        assert spy.call_count == 1

    def test_budget_message(self):
        with mock.patch.object(liftings, "CHAIN_SEARCH_BUDGET", 10):
            with pytest.raises(BudgetExceeded,
                               match="^congruence chain search budget exhausted$"):
                find_congruence_chains(builtin("bool:3"), "000", "111")


class TestExtraction:
    def test_m3_identity(self, named):
        lift = m3_identity_lifting(named)
        h, report = extract_embedding(lift, named["M:3"].labels)
        assert h == {x: x for x in named["M:3"].labels}
        assert report.ok and report.injective
        assert not report.coherence_checks  # no length-3 chains in M3

    def test_pair_node_congruence_identity(self, named):
        # at the node of two distinct interior elements, the step congruence
        # between the chosen chain middles maps onto the principal congruence
        # of the pair
        lift = m3_identity_lifting(named)
        node = node_of(C1, C2)
        B = lift.source.lattices[node]
        xi = lift.xi[node]
        A = lift.target.J[node].host
        tb = principal_congruence(B, "x1", "x2")
        assert xi.apply(tb) == principal_congruence(A, "x1", "x2")

    def test_dual_lifting_blocks_then_dualizes(self, named):
        lift = dual_lifting(m3_identity_lifting(named))
        ws = direct_chains_at(lift, node_of(C1))
        assert ws and all(not w.direct for w in ws)
        with pytest.raises(MissingDirectChain):
            extract_embedding(lift, named["M:3"].labels)
        h, report = extract_embedding_auto(lift, named["M:3"].labels)
        assert report.dualized and report.ok
        assert h == {x: x for x in named["M:3"].labels}

    def test_bounds_only_subset(self, named):
        lift = m3_identity_lifting(named)
        h, report = extract_embedding(lift, ["0", "1"])
        assert h == {"0": "0", "1": "1"} and report.ok

    def test_n5_and_f22_with_coherence(self, named):
        for name in ("N5", "F22", "chain:3"):
            L = named[name]
            D, _ = chain_diagram_of_partial(L, L.labels)
            lift = identity_lifting(D)
            h, report = extract_embedding(lift, L.labels)
            assert h == {x: x for x in L.labels}
            assert report.ok
            assert report.coherence_checks  # length-3 chains exist here

    def test_proper_subset_of_f22(self, named):
        # extraction for a spanning subset smaller than the diagram's
        # generating set: only the subset's chains matter
        F = named["F22"]
        D, _ = chain_diagram_of_partial(F, F.labels)
        lift = identity_lifting(D)
        subset = ["0", "x1^x2", "x1", "1"]
        h, report = extract_embedding(lift, subset)
        assert h == {x: x for x in subset}
        assert report.ok
        assert [c[0] for c in report.coherence_checks] == [("0", "x1^x2", "x1", "1")]


class TestTransportedLifting:
    def test_relabelled_target_extracts_the_inverse_iso(self):
        # lift the Conc diagram of a relabelled M3 by the original M3: the
        # xi maps are induced by the relabelling, nothing is an identity,
        # and extraction must recover the inverse relabelling
        from critlat.congruence import conc_of_hom
        from critlat.diagrams import LatticeDiagram
        from critlat.lattice import is_isomorphic, validate_lattice
        from critlat.liftings import Lifting
        from critlat.diagrams import apply_conc

        M3 = builtin("M:3")
        M3r = validate_lattice(
            ["b", "p", "q", "r", "t"],
            [("b", "p"), ("b", "q"), ("b", "r"),
             ("p", "t"), ("q", "t"), ("r", "t")], name="M3r")
        g = is_isomorphic(M3, M3r)
        fwd = g.as_label_dict()
        back = {v: k for k, v in fwd.items()}

        D2, _ = chain_diagram_of_partial(M3r, M3r.labels)
        S = apply_conc(D2)
        # the source diagram reuses M3's sublattices, re-indexed by the
        # relabelled poset
        lattices, maps, xi = {}, {}, {}
        translate = {}
        for node in D2.poset.elements:
            if node.is_top:
                src = M3
            else:
                chains_back = [tuple(back[x] for x in c) for c in node.chains]
                gens = sorted({x for c in chains_back for x in c}) or [
                    M3.bottom, M3.top]
                from critlat.lattice import subuniverse_closure
                src, _ = subuniverse_closure(M3, set(gens) | {M3.bottom, M3.top}
                                             if not node.chains else gens)
            lattices[node] = src
            translate[node] = Homomorphism.from_labels(
                src, D2.lattices[node],
                {lab: fwd[lab] for lab in src.labels})
        for (p, q) in D2.poset.pairs():
            maps[(p, q)] = Homomorphism.from_labels(
                lattices[p], lattices[q],
                {lab: lab for lab in lattices[p].labels})
        B = LatticeDiagram(D2.poset, lattices, maps)
        for node in D2.poset.elements:
            xi[node] = conc_of_hom(translate[node], JoinIrreducibles(lattices[node]),
                                   S.J[node])
        lift = Lifting(B, S, xi)
        assert verify_lifting(lift).ok
        h, report = extract_embedding(lift, M3r.labels)
        assert report.ok
        assert h == back  # the extracted embedding is the inverse relabelling


class TestDirectingProperty:
    @pytest.mark.parametrize("gen", ["M:3", "N5"])
    def test_short_chains(self, gen):
        dd = directing_diagram(builtin(gen), C1, C2, C3)
        lift = identity_lifting(dd)
        ok, counterexample = check_directing_property(lift, C1, C2, C3)
        assert ok and counterexample is None

    def test_long_third_chain(self):
        d = ("0", "y1", "y2", "1")
        dd = directing_diagram(builtin("M:3"), ("0", "y1", "1"),
                               ("0", "y2", "1"), d)
        lift = identity_lifting(dd)
        ok, _ = check_directing_property(lift, ("0", "y1", "1"),
                                         ("0", "y2", "1"), d)
        assert ok

    def test_hypothesis_unmet_on_dual(self):
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        lift = dual_lifting(identity_lifting(dd))
        with pytest.raises(HypothesisUnmet):
            check_directing_property(lift, C1, C2, C3)

    def test_miswired_xi_detected_somewhere(self):
        dd = directing_diagram(builtin("M:3"), C1, C2, C3)
        lift = identity_lifting(dd)
        swap_two_atoms(lift, node_of(C3))
        detected = not verify_lifting(lift).ok
        if not detected:
            ok, _ = check_directing_property(lift, C1, C2, C3)
            detected = not ok
        assert detected


class TestRetraction:
    def test_diagonal_of_the_square(self, named):
        two, sq = named["2"], named["bool:2"]
        f = Homomorphism.from_labels(two, sq, {"0": "00", "1": "11"})
        p0 = Homomorphism.from_labels(sq, two,
                                      {"00": "0", "01": "0", "10": "1", "11": "1"})
        p1 = Homomorphism.from_labels(sq, two,
                                      {"00": "0", "01": "1", "10": "0", "11": "1"})
        u, v, w = retraction_congruence_chain(f, p0, p1)
        assert (u, v) == ("0", "1")
        assert w.elements[0] == "00" and w.elements[-1] == "11"
        assert w.elements[1] in ("01", "10")
        complements = {kernel(p0).block_of, kernel(p1).block_of}
        assert {t.block_of for t in w.sigma} == complements
        assert w.sigma[0] != w.sigma[1]

    def test_steps_are_read_off_j(self, named, spy_on_j):
        # the diagonal of M3 in M3 x M3, whose Con is the four-element Boolean
        # lattice: one J(Con B) gives the retractions' check and both steps
        M3 = named["M:3"]
        P = product(M3, M3)
        diag = Homomorphism(M3, P, np.array(
            [P.index(f"({x},{x})") for x in M3.labels], dtype=np.int32))
        p0, p1 = product_projections(P)
        with spy_on_j() as spy:
            u, v, w = retraction_congruence_chain(diag, p0, p1)
        assert spy.call_count == 1
        assert (u, v, w.elements) == ("0", "x1", ("(0,0)", "(0,x1)", "(x1,x1)"))
        assert w.sigma == (principal_congruence(P, "(0,0)", "(0,x1)"),
                           principal_congruence(P, "(0,x1)", "(x1,x1)"))
        assert w.sigma == (kernel(p0), kernel(p1))

    def test_identity_retraction_rejected(self, named):
        two = named["2"]
        i = Homomorphism.identity(two)
        with pytest.raises(HypothesisUnmet):
            retraction_congruence_chain(i, i, i)

    def test_square_of_a_chain_rejected(self, named):
        # Con of (3-chain)^2 is the 16-element Boolean lattice, so the
        # two-coatom hypothesis fails
        c2 = named["chain:2"]
        P = product(c2, c2)
        diag = Homomorphism(c2, P, np.array(
            [P.index(f"({x},{x})") for x in c2.labels], dtype=np.int32))
        p0, p1 = product_projections(P)
        with pytest.raises(HypothesisUnmet):
            retraction_congruence_chain(diag, p0, p1)


class TestBundles:
    def test_round_trip_and_verify(self, named):
        lift = m3_identity_lifting(named)
        blob = json.dumps(lifting_to_json(lift), sort_keys=True)
        back = lifting_from_json(json.loads(blob))
        assert verify_lifting(back).ok

    def test_corrupted_bundle_detected(self, named):
        lift = m3_identity_lifting(named)
        obj = lifting_to_json(lift)
        key = str(node_of(C1))
        # swap the two atom images in the serialized xi
        entries = obj["xi"][key]
        swapped = []
        for sb, tb in entries:
            swapped.append([sb, tb])
        a = next(i for i, (sb, tb) in enumerate(entries) if len(sb) == 2)
        b = next(i for i, (sb, tb) in enumerate(entries)
                 if len(sb) == 2 and i != a)
        swapped[a][1], swapped[b][1] = entries[b][1], entries[a][1]
        obj["xi"][key] = swapped
        back = lifting_from_json(obj)
        assert not verify_lifting(back).ok
