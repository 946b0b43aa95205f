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
    ConLattice,
    Congruence,
    con_lattice,
    conc_of_hom,
    dual_identification,
    is_boolean,
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
    ConNotBoolean,
    CritlatError,
    HypothesisUnmet,
    MissingDirectChain,
    PosetMismatch,
    VerificationFailed,
)
from .lattice import Homomorphism, chain_order, dual, induced_partial_sublattice

CHAIN_SEARCH_BUDGET = 200_000


@dataclass
class Lifting:
    """A diagram of lattices together with per-node isomorphisms of its
    congruence lattices onto a target semilattice diagram."""
    source: LatticeDiagram
    target: SemilatticeDiagram
    xi: dict                 # node -> ConcMap, Con(source_P) -> target_P
    source_cons: dict        # node -> ConLattice of source_P


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
    xi = {n: ConcMap.identity(S.cons[n]) for n in D.poset.elements}
    return Lifting(D, S, xi, dict(S.cons))


def dual_diagram(D: LatticeDiagram) -> LatticeDiagram:
    """Dualize every lattice of the diagram, keeping the transition maps."""
    lattices = {n: dual(D.lattices[n]) for n in D.poset.elements}
    maps = {(p, q): Homomorphism(lattices[p], lattices[q], f.mapping, check="none")
            for (p, q), f in D.maps.items()}
    return LatticeDiagram(D.poset, lattices, maps, validate=False)


def dual_lifting(lift: Lifting) -> Lifting:
    """The dual of a lifting: congruence partitions of a lattice and its dual
    coincide, so each xi transports along that identification."""
    B2 = dual_diagram(lift.source)
    cons2 = {n: con_lattice(B2.lattices[n]) for n in B2.poset.elements}
    xi2 = {}
    for n in B2.poset.elements:
        ident = dual_identification(cons2[n], lift.source_cons[n])
        xi2[n] = lift.xi[n].compose(ident)
    return Lifting(B2, lift.target, xi2, cons2)


def verify_lifting(lift: Lifting, max_failures=64) -> LiftingReport:
    """Exhaustive verification; collects failures instead of raising.

    Checks the source diagram's functor and homomorphism laws on every edge
    (LatticeDiagram.law_failures), the target's functor laws, that every xi
    is an isomorphism, and every naturality square
    xi_Q . Conc(g_PQ) = target_PQ . xi_P.  An edge out of a lazy product
    that does not factor through one coordinate raises BudgetExceeded.
    """
    B, S = lift.source, lift.target
    if B.poset != S.poset:
        raise PosetMismatch("source and target live on different posets")
    failures = []

    def note(*f):
        if len(failures) < max_failures:
            failures.append(f)

    poset = B.poset
    for f in B.law_failures():
        note(*f)
    try:
        S.validate()
    except CritlatError as exc:
        note("target-functor", str(exc))
    for p in poset.elements:
        x = lift.xi.get(p)
        if x is None:
            note("missing-xi", p)
            continue
        if x.source.n != lift.source_cons[p].n or x.target.n != S.cons[p].n:
            note("xi-wrong-shape", p)
        elif not x.isomorphism:
            note("xi-not-iso", p)
    if failures:
        return LiftingReport(False, failures)
    for (p, q) in poset.pairs():
        cf = conc_of_hom(B.maps[(p, q)], lift.source_cons[p], lift.source_cons[q])
        left = lift.xi[q].compose(cf)
        right = S.maps[(p, q)].compose(lift.xi[p])
        if not left.equal_map(right):
            note("naturality", p, q)
    return LiftingReport(not failures, failures)


# --- congruence chains inside a lifting ---

def find_congruence_chains(B, u, v, con: Optional[ConLattice] = None,
                           budget=CHAIN_SEARCH_BUDGET):
    """All congruence chains of B with extremities u and v.

    Requires Con B Boolean.  A qualifying chain steps through distinct atoms
    of Con B, one per step, exhausting them; steps need not be covers of B.
    Deterministic order (next element by canonical index).
    """
    conB = con or con_lattice(B)
    ok, atoms, _ = is_boolean(conB)
    if not ok:
        raise ConNotBoolean(f"Con of {B!r} is not Boolean")
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
    BP = B.lattices[node]
    conP = lift.source_cons[node]
    C = lift.target.cons[node].host
    c_elems = chain_order(C)
    xi = lift.xi[node]
    witnesses = find_congruence_chains(BP, gu, gv, con=conP)
    for w in witnesses:
        w.node = node
        if len(w.elements) != len(c_elems):
            w.direct = False
            continue
        w.direct = all(
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


def extract_embedding(lift: Lifting, subset, u=None, v=None,
                      chain_choices=None, strict=True):
    """Build the map h from the spanning subset into the top node of a chain
    diagram lifting, and verify it is an embedding of partial lattices.

    h sends 0 and 1 to the images of u and v, and every interior x to the
    image at the top of the chosen direct congruence chain for {0, x, 1}.
    Verified: injectivity, preservation of all meets/joins defined in the
    subset, coherence of the length-3 chain choices, and the congruence
    condition xi_top(Theta(h x, h y)) = Theta_L(x, y).  With strict=True a
    failed check raises VerificationFailed.
    """
    B = lift.source
    poset = B.poset
    if not isinstance(poset, IndexPoset):
        raise CritlatError("extract_embedding needs a chain-diagram lifting")
    L = lift.target.cons[TOP].host
    K = induced_partial_sublattice(L, subset)
    B_bot = B.lattices[EMPTY]
    u = u if u is not None else B_bot.bottom
    v = v if v is not None else B_bot.top
    bot, top = L.bottom, L.top

    interior = [x for x in K.labels if x not in (bot, top)]
    t_mid = {}
    choices = {}
    for x in interior:
        cx = (bot, x, top)
        node = node_of(cx)
        if node not in B.lattices:
            raise CritlatError(f"chain {cx} missing from the diagram")
        wanted = None
        if chain_choices and x in chain_choices:
            wanted = tuple(chain_choices[x])
        found = [w for w in direct_chains_at(lift, node, u, v) if w.direct]
        if wanted is not None:
            found = [w for w in found if w.elements == wanted]
        if not found:
            raise MissingDirectChain(node)
        w = found[0]
        choices[x] = w.elements
        t_mid[x] = w.elements[1]

    h = {bot: B.maps[(EMPTY, TOP)].apply(u),
         top: B.maps[(EMPTY, TOP)].apply(v)}
    for x in interior:
        node = node_of((bot, x, top))
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
    if strict and not report.ok:
        bad = ([c for c in op_checks if not c[-1]]
               + [c for c in con_checks if not c[-1]]
               + [c for c in coherence if not c[-1]])
        raise VerificationFailed(bad[0] if bad else "injectivity",
                                 f"embedding verification failed: {bad[:3]}")
    return h, report


def extract_embedding_auto(lift: Lifting, subset, u=None, v=None):
    """Try the lifting as given, then its dual (with swapped extremities)."""
    try:
        h, report = extract_embedding(lift, subset, u, v)
        return h, report
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
        found = [w for w in direct_chains_at(lift, node_of(tuple(c)), u, v)
                 if w.direct]
        if not found:
            raise HypothesisUnmet(f"no direct congruence chain at {node_of(tuple(c))}")
    for w in direct_chains_at(lift, node_of(tuple(c3)), u, v):
        if not w.direct:
            return False, w
    return True, None


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
    conB = con_lattice(B)
    okb, atoms, _ = is_boolean(conB)
    if not okb or conB.n != 4 or len(atoms) != 2:
        raise HypothesisUnmet("Con B is not the four-element Boolean lattice")
    from .congruence import kernel
    a0, a1 = kernel(pi0), kernel(pi1)
    coatoms = [conB.cons[k] for k in range(conB.n)
               if k not in (conB.bottom_i, conB.top_i)]
    if {a0.block_of, a1.block_of} != {t.block_of for t in coatoms} or a0 == a1:
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
        xi[str(n)] = [[x.source.cons[k].label_blocks(),
                       x.target.cons[int(x.mapping[k])].label_blocks()]
                      for k in range(x.source.n)]
    return {"schema": 1,
            "source": diagram_to_json(lift.source),
            "target": diagram_to_json(A),
            "xi": xi}


def lifting_from_json(obj) -> Lifting:
    src = diagram_from_json(obj["source"])
    tgt = diagram_from_json(obj["target"])
    S = apply_conc(tgt)
    cons = {n: con_lattice(src.lattices[n]) for n in src.poset.elements}
    xi = {}
    for n in src.poset.elements:
        pairs = obj["xi"][str(n)]
        mapping = np.zeros(cons[n].n, dtype=np.int32)
        for sb, tb in pairs:
            si = cons[n].index_of(Congruence.from_label_blocks(src.lattices[n], sb))
            ti = S.cons[n].index_of(Congruence.from_label_blocks(tgt.lattices[n], tb))
            mapping[si] = ti
        xi[n] = ConcMap(cons[n], S.cons[n], mapping)
    return Lifting(src, S, xi, cons)
