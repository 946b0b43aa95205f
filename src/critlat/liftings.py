"""Liftings of congruence-lattice diagrams and their verification.

A lifting pairs a diagram of lattices with a natural family of isomorphisms
from its nodewise congruence lattices onto a target semilattice diagram.
Verification is exhaustive: a LatticeDiagram checks its homomorphism and
functor laws when it is built, and verify_lifting then checks that every xi
is an isomorphism and every naturality square; these imply the target's
functor laws.  On top of valid liftings of chain diagrams we search for
congruence chains, check directness, and extract the embedding of the
generating partial lattice into the top node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .congruence import (
    ConcMap,
    ConcMemo,
    Congruence,
    JoinIrreducibles,
    _sends_chain,
    atom_steps,
    boolean_J,
    con_lattice,
    kernel,
)
from .diagrams import (
    TOP,
    IndexPoset,
    LatticeDiagram,
    SemilatticeDiagram,
    apply_conc,
    diagram_from_json,
    diagram_to_json,
    node_of,
)
from .errors import (
    CritlatError,
    FormatError,
    HypothesisUnmet,
    MissingDirectChain,
    PosetMismatch,
    VerificationFailed,
)
from .lattice import (
    Homomorphism,
    _assignments,
    _same_or_dual,
    chain_order,
    dual,
    induced_partial_sublattice,
)

CHAIN_SEARCH_BUDGET = 200_000
MAX_LIFTING_FAILURES = 64   # verify_lifting keeps at most this many


@dataclass
class Lifting:
    """A diagram of lattices together with per-node isomorphisms of its
    congruence lattices onto a target semilattice diagram."""
    source: LatticeDiagram
    target: SemilatticeDiagram
    xi: dict                 # node -> ConcMap, Con(source_P) -> target_P


@dataclass
class ChainWitness:
    """A congruence chain found at one node of a lifting."""
    node: object
    elements: tuple          # labels, extremity to extremity
    sigma: tuple             # step congruences, sigma(k) = Theta(x_k, x_{k+1})
    direct: Optional[bool] = None

    def to_json(self):
        return {"node": str(self.node), "elements": list(self.elements),
                "sigma": [t.label_blocks() for t in self.sigma],
                "direct": self.direct}


@dataclass
class LiftingReport:
    ok: bool
    failures: list = field(default_factory=list)

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None

    def to_json(self):
        return {"ok": self.ok,
                "failures": [[str(x) for x in f] for f in self.failures]}


def identity_lifting(D: LatticeDiagram) -> Lifting:
    """The tautological lifting of Conc applied to D."""
    S = apply_conc(D)
    return Lifting(D, S, {n: ConcMap.identity(S.J[n]) for n in D.poset.elements})


def dual_diagram(D: LatticeDiagram) -> LatticeDiagram:
    """Dualize every lattice of the diagram, keeping the transition maps."""
    lattices = {n: dual(D.lattices[n]) for n in D.poset.elements}
    maps = {(p, q): Homomorphism._trusted(lattices[p], lattices[q], f.mapping)
            for (p, q), f in D.maps.items()}
    # a bounded homomorphism L -> M is one L^d -> M^d, so the dual is lawful
    return LatticeDiagram._derived(D.poset, lattices, maps)


def dual_lifting(lift: Lifting) -> Lifting:
    """The dual of a lifting.  A lattice and its dual have the same
    congruences, and J(Con dual L) lists them in the same canonical order as
    J(Con L), so each xi passes across unchanged."""
    return Lifting(dual_diagram(lift.source), lift.target, dict(lift.xi))


def verify_lifting(lift: Lifting) -> LiftingReport:
    """Exhaustive verification; collects failures instead of raising.

    The source diagram's functor and homomorphism laws were checked when it
    was built.  Checks that every xi is present ("missing-xi"), has the
    shape of its node's J(Con) ("xi-wrong-shape") and is an isomorphism
    ("xi-not-iso"), and, once those hold and each xi's source has the
    lattice of its node or its dual, every naturality square
    xi_Q . Conc(g_PQ) = target_PQ . xi_P on every p <= q, p = q included
    ("naturality"); a missing target edge fails its square.  The target's
    functor laws are implied, not checked: with B lawful, every xi
    invertible and every square commuting, target_PQ =
    xi_Q . Conc(g_PQ) . xi_P^-1, a composite of functors.  At most
    MAX_LIFTING_FAILURES failures are kept.
    """
    B, S = lift.source, lift.target
    if B.poset != S.poset:
        raise PosetMismatch("source and target live on different posets")
    poset = B.poset
    failures = []
    for p in poset.elements:
        x = lift.xi.get(p)
        if x is None:
            failures.append(("missing-xi", p))
        elif len(x.target) != len(S.J[p]):
            failures.append(("xi-wrong-shape", p))
        elif not x.isomorphism:
            failures.append(("xi-not-iso", p))
    if not failures:
        # each xi must start at J(Con) of its node's lattice or of its dual
        failures = [("xi-wrong-shape", p) for p in poset.elements
                    if not _same_or_dual(lift.xi[p].source.host, B.lattices[p])]
    if not failures:
        memo = ConcMemo()
        for (p, q) in poset.pairs():
            xp, xq = lift.xi[p], lift.xi[q]
            cf = memo.conc(B.maps[(p, q)], xp.source, xq.source)
            s = S.maps.get((p, q))
            if s is None or not xq.commutes(cf, s, xp):
                failures.append(("naturality", p, q))
    return LiftingReport(not failures, failures[:MAX_LIFTING_FAILURES])


# --- congruence chains inside a lifting ---

def find_congruence_chains(B, u, v, J: Optional[JoinIrreducibles] = None):
    """All congruence chains of B with extremities u and v.

    Requires Con B Boolean.  A qualifying chain steps through distinct atoms
    of Con B, one per step, exhausting them; steps need not be covers of B.
    Deterministic order (next element by canonical index).  Each element
    tried as a next step counts one step against CHAIN_SEARCH_BUDGET; the
    elements the path has already stepped to are skipped without counting.
    """
    J = boolean_J(B, J)
    ui, vi = B.index(u), B.index(v)
    n_atoms = len(J)
    if ui == vi:
        if n_atoms == 0:
            return [ChainWitness(None, (u,), ())]
        return []
    theta = atom_steps(J)

    def fits(a):
        # the new step prev -> z: prev < z <= v, its congruence an atom that
        # no earlier step used, and the last step ends at v
        path = [ui, *a]
        prev, z = path[-2:]
        if (z == prev or not B.leq_i(prev, z) or not B.leq_i(z, vi)
                or (len(a) == n_atoms and z != vi)):
            return False
        k = theta(prev, z)
        return k >= 0 and all(theta(x, y) != k for x, y in zip(path, path[1:-1]))

    found = _assignments(n_atoms, lambda k, a: range(B.n), fits,
                         CHAIN_SEARCH_BUDGET, "congruence chain", find_all=True)
    witnesses = []
    for steps in found:
        path = [ui, *steps]
        labels = tuple(B.labels[i] for i in path)
        sigma = tuple(Congruence.from_rep(B, J.cons[theta(a, b)].block_of)
                      for a, b in zip(path, path[1:]))
        witnesses.append(ChainWitness(None, labels, sigma))
    return witnesses


def direct_chains_at(lift: Lifting, node):
    """Congruence chains of the lattice at `node` between its bounds, each
    tagged with its directness for (xi_node, target chain).  Every diagram
    edge keeps bounds, so these are the images of the bottom node's bounds."""
    xi = lift.xi[node]
    C = lift.target.J[node].host
    c_elems = [C.index(c) for c in chain_order(C)]
    L = lift.source.lattices[node]
    witnesses = find_congruence_chains(L, L.bottom, L.top, J=xi.source)
    for w in witnesses:
        w.node = node
        w.direct = _sends_chain(xi, [L.index(x) for x in w.elements], C, c_elems)
    return witnesses


# --- the embedding extracted from a good lifting ---

@dataclass
class EmbeddingReport:
    mapping: dict
    injective: bool
    operation_checks: list      # (kind, x, y, ok)
    congruence_checks: list     # (x, y, ok)
    coherence_checks: list      # (chain, ok)
    dualized: bool = False

    @property
    def ok(self):
        return (self.injective
                and all(c[-1] for c in self.operation_checks)
                and all(c[-1] for c in self.congruence_checks)
                and all(c[-1] for c in self.coherence_checks))

    def to_json(self):
        return {
            "mapping": dict(self.mapping),
            "injective": self.injective,
            "operation_checks": [[str(a) for a in c] for c in self.operation_checks],
            "congruence_checks": [[str(a) for a in c] for c in self.congruence_checks],
            "coherence_checks": [[str(a) for a in c] for c in self.coherence_checks],
            "dualized": self.dualized,
        }


def extract_embedding(lift: Lifting, subset):
    """Build the map h from the spanning subset into the top node of a chain
    diagram lifting, and verify it is an embedding of partial lattices.

    h sends 0 and 1 to the top node's bounds, and every interior x to the
    image at the top of the first direct congruence chain for {0, x, 1}.
    Verified: injectivity, preservation of all meets/joins defined in the
    subset, coherence of the length-3 chain choices, and the congruence
    condition xi_top(Theta(h x, h y)) = Theta_L(x, y).  A failed check
    raises VerificationFailed.
    """
    B = lift.source
    poset = B.poset
    if not isinstance(poset, IndexPoset):
        raise CritlatError("extract_embedding needs a chain-diagram lifting")
    L = lift.target.J[TOP].host
    K = induced_partial_sublattice(L, subset)
    B_top = B.lattices[TOP]
    bot, top = L.bottom, L.top

    interior = [x for x in K.labels if x not in (bot, top)]
    h = {bot: B_top.bottom, top: B_top.top}
    t_mid = {}
    for x in interior:
        cx = (bot, x, top)
        node = node_of(cx)
        if node not in B.lattices:
            raise CritlatError(f"chain {cx} missing from the diagram")
        found = [w for w in direct_chains_at(lift, node) if w.direct]
        if not found:
            raise MissingDirectChain(node)
        t_mid[x] = found[0].elements[1]
        h[x] = B.maps[(node, TOP)].apply(t_mid[x])

    injective = len(set(h.values())) == len(h)

    op_checks = []
    for i, x in enumerate(K.labels):
        for y in K.labels[i:]:
            if K.meet_defined(x, y):
                want = h[K.meet(x, y)]
                got = B_top.meet(h[x], h[y])
                kind = "meet" if K.meet(x, y) != bot else "meet-to-bottom"
                op_checks.append((kind, x, y, got == want))
            if K.join_defined(x, y):
                want = h[K.join(x, y)]
                got = B_top.join(h[x], h[y])
                kind = "join" if K.join(x, y) != top else "join-to-top"
                op_checks.append((kind, x, y, got == want))

    # coherence of length-3 chains: the direct chain through {0,a,b,1} must
    # reuse the single-chain choices at the pair nodes
    coherence = []
    for c in poset.chains:
        if len(c) != 4 or not set(c) <= set(K.labels):
            continue
        node_d = node_of(c)
        dws = [w for w in direct_chains_at(lift, node_d) if w.direct]
        if not dws:
            raise MissingDirectChain(node_d)
        dw = dws[0]
        okc = True
        for k, x in enumerate(c[1:-1]):
            cx = (bot, x, top)
            pair = node_of(cx, c)
            a = B.maps[(node_of(cx), pair)].apply(t_mid[x])
            b = B.maps[(node_d, pair)].apply(dw.elements[k + 1])
            okc = okc and (a == b)
        coherence.append((c, okc))

    pairs = list(itertools.combinations(K.labels, 2))
    oks = lift.xi[TOP].sends_principal(
        [B_top.index(h[x]) for x, _ in pairs], [B_top.index(h[y]) for _, y in pairs],
        L, [L.index(x) for x, _ in pairs], [L.index(y) for _, y in pairs])
    con_checks = [(x, y, bool(ok)) for (x, y), ok in zip(pairs, oks)]

    report = EmbeddingReport(h, injective, op_checks, con_checks, coherence)
    if not report.ok:
        bad = ([c for c in op_checks if not c[-1]]
               + [c for c in con_checks if not c[-1]]
               + [c for c in coherence if not c[-1]])
        raise VerificationFailed(bad[0] if bad else "injectivity",
                                 f"embedding verification failed: {bad[:3]}")
    return h, report


def extract_embedding_auto(lift: Lifting, subset):
    """Try the lifting as given, then its dual."""
    try:
        return extract_embedding(lift, subset)
    except MissingDirectChain:
        pass
    h, report = extract_embedding(dual_lifting(lift), subset)
    report.dualized = True
    return h, report


# --- the directing property on a concrete lifting ---

def check_directing_property(lift: Lifting, c1, c2, c3):
    """Verify that every congruence chain at the c3 node is direct, given
    direct chains at the c1 and c2 nodes (raises HypothesisUnmet without
    them).  Returns (True, None) or (False, counterexample ChainWitness)."""
    for c in (c1, c2):
        if not any(w.direct for w in direct_chains_at(lift, node_of(tuple(c)))):
            raise HypothesisUnmet(f"no direct congruence chain at {node_of(tuple(c))}")
    bad = next((w for w in direct_chains_at(lift, node_of(tuple(c3)))
                if not w.direct), None)
    return bad is None, bad


# --- congruence chains from retractions ---

def retraction_congruence_chain(f: Homomorphism, pi0: Homomorphism,
                                pi1: Homomorphism):
    """From a section f: A -> B with two retractions whose kernels are the
    coatoms of Con B (which must be the four-element Boolean lattice),
    produce u < v in A and a two-step congruence chain of B between their
    images.

    Construction: walk a chain from f(u) to f(v) whose steps generate the two
    coatom complements; cut it after the first step and meet with the image
    of the reached element.  The two step congruences are verified exactly.
    """
    A, B = f.source, f.target
    for pi in (pi0, pi1):
        comp = pi.compose(f)
        if not (comp.mapping == np.arange(A.n)).all():
            raise HypothesisUnmet("pi is not a retraction of f")
    J = JoinIrreducibles(B)
    atoms = J.boolean_atoms()
    if atoms is None or len(atoms) != 2:
        raise HypothesisUnmet("Con B is not the four-element Boolean lattice")
    a0, a1 = kernel(pi0), kernel(pi1)
    # the coatoms of the four-element Boolean lattice are its atoms
    if {a0.block_of, a1.block_of} != {t.block_of for t in atoms} or a0 == a1:
        raise HypothesisUnmet("kernels of the retractions are not the two coatoms")
    beta = {0: a1, 1: a0}  # complement of ker pi_k in the Boolean Con B

    ui, vi = None, None
    for i in range(A.n):
        for j in range(A.n):
            if i != j and A.leq_i(i, j):
                ui, vi = i, j
                break
        if ui is not None:
            break
    if ui is None:
        raise HypothesisUnmet("A has no pair u < v")
    u, v = A.labels[ui], A.labels[vi]
    fu, fv = f.apply(u), f.apply(v)

    # the member of J(Con B) that each beta[k] is, and k
    allowed = {k: b for b, beta_b in beta.items()
               for k, t in enumerate(J.cons) if t.block_of == beta_b.block_of}
    fu_i, fv_i = B.index(fu), B.index(fv)
    theta = atom_steps(J)

    # the first path from f(u) up to f(v) in index order whose steps
    # generate coatom complements; next steps are pushed in reverse to pop
    # in increasing order
    chain = None
    stack = [(fu_i,)]
    while stack:
        path = stack.pop()
        cur = path[-1]
        if cur == fv_i and len(path) > 1:
            chain = path
            break
        stack.extend(path + (z,) for z in reversed(range(B.n))
                     if z != cur and B.leq_i(cur, z) and B.leq_i(z, fv_i)
                     and theta(cur, z) in allowed)
    if chain is None:
        raise HypothesisUnmet("no chain with coatom-complement steps exists")
    if allowed[theta(chain[0], chain[1])] == 1:
        pi0, pi1 = pi1, pi0
        beta = {0: beta[1], 1: beta[0]}
    x1 = B.labels[chain[1]]
    v_prime = pi0.apply(x1)
    t1 = B.meet(x1, f.apply(v_prime))
    fu2, fvp = f.apply(u), f.apply(v_prime)
    path = [B.index(x) for x in (fu2, t1, fvp)]
    s0, s1 = J.congruences(J.principal_masks(path[:-1], path[1:]))
    if s0 != beta[0] or s1 != beta[1]:
        raise VerificationFailed((u, v_prime),
                                 "retraction chain postcondition failed")
    if not (B.le(fu2, t1) and B.le(t1, fvp) and fu2 != t1 and t1 != fvp):
        raise VerificationFailed((u, v_prime), "retraction chain is not strict")
    witness = ChainWitness(None, (fu2, t1, fvp), (s0, s1))
    return u, v_prime, witness


# --- serialization ---

def lifting_to_json(lift: Lifting) -> dict:
    A = lift.target.of_diagram
    xi = {}
    for n in lift.source.poset.elements:
        x = lift.xi[n]
        con_s, con_t = con_lattice(lift.source.lattices[n]), con_lattice(x.target.host)
        xi[str(n)] = [[con_s.cons[k].label_blocks(), con_t.cons[t].label_blocks()]
                      for k, t in enumerate(x.mapping_on(con_s, con_t).tolist())]
    return {"schema": 1,
            "source": diagram_to_json(lift.source),
            "target": diagram_to_json(A),
            "xi": xi}


def lifting_from_json(obj) -> Lifting:
    """The lifting of a bundle written by lifting_to_json; FormatError when
    the bundle does not have that shape, as when the xi of a node does not
    list each congruence of its source exactly once."""
    try:
        src = diagram_from_json(obj["source"])
        tgt = diagram_from_json(obj["target"])
        S = apply_conc(tgt)
        xi = {}
        for n in src.poset.elements:
            con_s, con_t = con_lattice(src.lattices[n]), con_lattice(tgt.lattices[n])
            entries = obj["xi"][str(n)]
            mapping = np.full(con_s.n, -1, dtype=np.int32)
            for sb, tb in entries:
                si = con_s.index_of(Congruence.from_label_blocks(src.lattices[n], sb))
                mapping[si] = con_t.index_of(
                    Congruence.from_label_blocks(tgt.lattices[n], tb))
            if len(entries) != con_s.n or (mapping < 0).any():
                raise FormatError(f"bad lifting bundle: xi at {n} does not list "
                                  "each congruence of its source exactly once")
            xi[n] = ConcMap.from_mapping(con_s, con_t, mapping)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"bad lifting bundle: {exc!r}") from None
    return Lifting(src, S, xi)
