"""Liftings of congruence-lattice diagrams and their verification.

A lifting pairs a diagram of lattices with a natural family of isomorphisms
from its nodewise congruence lattices onto a target semilattice diagram.
Verification is exhaustive: homomorphism laws, functor laws, isomorphism
flags, and every naturality square.  On top of valid liftings of chain
diagrams we search for congruence chains, check directness, and extract the
embedding of the generating partial lattice into the top node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .congruence import (
    ConcMap,
    Congruence,
    JoinIrreducibles,
    _check_con_size,
    boolean_atoms_of,
    con_lattice,
    conc_of_hom,
    kernel,
    principal_congruence,
)
from .diagrams import (
    EMPTY,
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
    BudgetExceeded,
    CritlatError,
    HypothesisUnmet,
    MissingDirectChain,
    PosetMismatch,
    VerificationFailed,
)
from .lattice import Homomorphism, chain_order, dual, induced_partial_sublattice

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
    maps = {(p, q): Homomorphism(lattices[p], lattices[q], f.mapping, check="none")
            for (p, q), f in D.maps.items()}
    return LatticeDiagram(D.poset, lattices, maps, validate=False)


def dual_lifting(lift: Lifting) -> Lifting:
    """The dual of a lifting.  A lattice and its dual have the same
    congruences, and J(Con dual L) lists them in the same canonical order as
    J(Con L), so each xi passes across unchanged."""
    return Lifting(dual_diagram(lift.source), lift.target, dict(lift.xi))


def verify_lifting(lift: Lifting) -> LiftingReport:
    """Exhaustive verification; collects failures instead of raising.

    Checks the source diagram's functor and homomorphism laws on every edge
    (LatticeDiagram.law_failures), the target's functor laws, that every xi
    is an isomorphism, and, once those hold and each xi's source has the
    elements of its node, every naturality square
    xi_Q . Conc(g_PQ) = target_PQ . xi_P.  At most MAX_LIFTING_FAILURES
    failures are kept.  An edge out of a lazy product that does not factor
    through one coordinate raises BudgetExceeded.
    """
    B, S = lift.source, lift.target
    if B.poset != S.poset:
        raise PosetMismatch("source and target live on different posets")
    poset = B.poset
    failures = list(B.law_failures())
    try:
        S.validate()
    except CritlatError as exc:
        failures.append(("target-functor", str(exc)))
    for p in poset.elements:
        x = lift.xi.get(p)
        if x is None:
            failures.append(("missing-xi", p))
        elif len(x.target) != len(S.J[p]):
            failures.append(("xi-wrong-shape", p))
        elif not x.isomorphism:
            failures.append(("xi-not-iso", p))
    if not failures:
        failures = [("xi-wrong-shape", p) for p in poset.elements
                    if lift.xi[p].source.host.n != B.lattices[p].n]
    if not failures:
        for (p, q) in poset.pairs():
            cf = conc_of_hom(B.maps[(p, q)], lift.xi[p].source, lift.xi[q].source)
            if not lift.xi[q].compose(cf).equal_map(S.maps[(p, q)].compose(lift.xi[p])):
                failures.append(("naturality", p, q))
    return LiftingReport(not failures, failures[:MAX_LIFTING_FAILURES])


# --- congruence chains inside a lifting ---

def find_congruence_chains(B, u, v, J: Optional[JoinIrreducibles] = None,
                           budget=CHAIN_SEARCH_BUDGET):
    """All congruence chains of B with extremities u and v.

    Requires Con B Boolean.  A qualifying chain steps through distinct atoms
    of Con B, one per step, exhausting them; steps need not be covers of B.
    Deterministic order (next element by canonical index).
    """
    atoms = boolean_atoms_of(B, J)
    ui, vi = B.index(u), B.index(v)
    atom_keys = {t.block_of: t for t in atoms}
    n_atoms = len(atoms)
    if ui == vi:
        if n_atoms == 0:
            return [ChainWitness(None, (u,), ())]
        return []
    out = []
    steps = 0
    theta_cache = {}

    def theta(a, b):
        if (a, b) not in theta_cache:
            theta_cache[(a, b)] = principal_congruence(
                B, B.labels[a], B.labels[b])
        return theta_cache[(a, b)]

    def walk(path, used):
        nonlocal steps
        cur = path[-1]
        if len(used) == n_atoms:
            if cur == vi:
                out.append(tuple(path))
            return
        for z in range(B.n):
            steps += 1
            if steps > budget:
                raise BudgetExceeded("congruence chain search budget exhausted")
            if z == cur or not B.leq_i(cur, z) or not B.leq_i(z, vi):
                continue
            t = theta(cur, z)
            key = t.block_of
            if key in atom_keys and key not in used:
                walk(path + [z], used | {key})

    walk([ui], frozenset())
    witnesses = []
    for path in out:
        labels = tuple(B.labels[i] for i in path)
        sigma = tuple(theta(a, b) for a, b in zip(path, path[1:]))
        witnesses.append(ChainWitness(None, labels, sigma))
    return witnesses


def direct_chains_at(lift: Lifting, node, u, v):
    """Congruence chains of the lattice at `node` between the images of u, v,
    each tagged with its directness for (xi_node, target chain)."""
    B = lift.source
    gu = B.maps[(EMPTY, node)].apply(u)
    gv = B.maps[(EMPTY, node)].apply(v)
    xi = lift.xi[node]
    C = lift.target.J[node].host
    c_elems = chain_order(C)
    witnesses = find_congruence_chains(B.lattices[node], gu, gv, J=xi.source)
    for w in witnesses:
        w.node = node
        w.direct = len(w.elements) == len(c_elems) and all(
            xi.apply(t) == principal_congruence(C, c_elems[k], c_elems[k + 1])
            for k, t in enumerate(w.sigma))
    return witnesses


# --- the embedding extracted from a good lifting ---

@dataclass
class EmbeddingReport:
    mapping: dict
    injective: bool
    operation_checks: list      # (kind, x, y, ok)
    congruence_checks: list     # (x, y, ok)
    coherence_checks: list      # (chain, ok)
    chain_choices: dict
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


def extract_embedding(lift: Lifting, subset, u=None, v=None, chain_choices=None):
    """Build the map h from the spanning subset into the top node of a chain
    diagram lifting, and verify it is an embedding of partial lattices.

    h sends 0 and 1 to the images of u and v, and every interior x to the
    image at the top of the chosen direct congruence chain for {0, x, 1}.
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
    B_bot = B.lattices[EMPTY]
    u = u if u is not None else B_bot.bottom
    v = v if v is not None else B_bot.top
    bot, top = L.bottom, L.top

    interior = [x for x in K.labels if x not in (bot, top)]
    h = {bot: B.maps[(EMPTY, TOP)].apply(u),
         top: B.maps[(EMPTY, TOP)].apply(v)}
    t_mid = {}
    choices = {}
    for x in interior:
        cx = (bot, x, top)
        node = node_of(cx)
        if node not in B.lattices:
            raise CritlatError(f"chain {cx} missing from the diagram")
        found = [w for w in direct_chains_at(lift, node, u, v) if w.direct]
        if chain_choices and x in chain_choices:
            found = [w for w in found if w.elements == tuple(chain_choices[x])]
        if not found:
            raise MissingDirectChain(node)
        choices[x] = found[0].elements
        t_mid[x] = found[0].elements[1]
        h[x] = B.maps[(node, TOP)].apply(t_mid[x])

    B_top = B.lattices[TOP]
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
        dws = [w for w in direct_chains_at(lift, node_d, u, v) if w.direct]
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

    xi_top = lift.xi[TOP]
    con_checks = []
    for i, x in enumerate(K.labels):
        for y in K.labels[i + 1:]:
            tb = principal_congruence(B_top, h[x], h[y])
            ta = principal_congruence(L, x, y)
            ok = xi_top.apply(tb) == ta
            con_checks.append((x, y, ok))

    report = EmbeddingReport(h, injective, op_checks, con_checks,
                             coherence, choices)
    if not report.ok:
        bad = ([c for c in op_checks if not c[-1]]
               + [c for c in con_checks if not c[-1]]
               + [c for c in coherence if not c[-1]])
        raise VerificationFailed(bad[0] if bad else "injectivity",
                                 f"embedding verification failed: {bad[:3]}")
    return h, report


def extract_embedding_auto(lift: Lifting, subset, u=None, v=None):
    """Try the lifting as given, then its dual (with swapped extremities)."""
    try:
        return extract_embedding(lift, subset, u, v)
    except MissingDirectChain:
        pass
    dl = dual_lifting(lift)
    B_bot = dl.source.lattices[EMPTY]
    u2 = v if v is not None else B_bot.bottom
    v2 = u if u is not None else B_bot.top
    h, report = extract_embedding(dl, subset, u2, v2)
    report.dualized = True
    return h, report


# --- the directing property on a concrete lifting ---

def check_directing_property(lift: Lifting, c1, c2, c3, u=None, v=None):
    """Verify that every congruence chain at the c3 node is direct, given
    direct chains at the c1 and c2 nodes (raises HypothesisUnmet without
    them).  Returns (True, None) or (False, counterexample ChainWitness)."""
    B = lift.source
    B_bot = B.lattices[EMPTY]
    u = u if u is not None else B_bot.bottom
    v = v if v is not None else B_bot.top
    for c in (c1, c2):
        if not any(w.direct for w in direct_chains_at(lift, node_of(tuple(c)), u, v)):
            raise HypothesisUnmet(f"no direct congruence chain at {node_of(tuple(c))}")
    bad = next((w for w in direct_chains_at(lift, node_of(tuple(c3)), u, v)
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
    _check_con_size(B)
    atoms = JoinIrreducibles(B).boolean_atoms()
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

    allowed = {beta[0].block_of: 0, beta[1].block_of: 1}
    fu_i, fv_i = B.index(fu), B.index(fv)
    chain = None

    def walk(path):
        nonlocal chain
        if chain is not None:
            return
        cur = path[-1]
        if cur == fv_i and len(path) > 1:
            chain = list(path)
            return
        for z in range(B.n):
            if z == cur or not B.leq_i(cur, z) or not B.leq_i(z, fv_i):
                continue
            t = principal_congruence(B, B.labels[cur], B.labels[z])
            if t.block_of in allowed:
                walk(path + [z])
                if chain is not None:
                    return

    walk([fu_i])
    if chain is None:
        raise HypothesisUnmet("no chain with coatom-complement steps exists")
    first = principal_congruence(B, B.labels[chain[0]], B.labels[chain[1]])
    if allowed[first.block_of] == 1:
        pi0, pi1 = pi1, pi0
        beta = {0: beta[1], 1: beta[0]}
    x1 = B.labels[chain[1]]
    v_prime = pi0.apply(x1)
    t1 = B.meet(x1, f.apply(v_prime))
    fu2, fvp = f.apply(u), f.apply(v_prime)
    s0 = principal_congruence(B, fu2, t1)
    s1 = principal_congruence(B, t1, fvp)
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
    if A is None:
        raise CritlatError("lifting target does not carry its lattice diagram")
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
    src = diagram_from_json(obj["source"])
    tgt = diagram_from_json(obj["target"])
    S = apply_conc(tgt)
    xi = {}
    for n in src.poset.elements:
        con_s, con_t = con_lattice(src.lattices[n]), con_lattice(tgt.lattices[n])
        mapping = np.zeros(con_s.n, dtype=np.int32)
        for sb, tb in obj["xi"][str(n)]:
            si = con_s.index_of(Congruence.from_label_blocks(src.lattices[n], sb))
            mapping[si] = con_t.index_of(Congruence.from_label_blocks(tgt.lattices[n], tb))
        xi[n] = ConcMap.from_mapping(con_s, con_t, mapping)
    return Lifting(src, S, xi)
