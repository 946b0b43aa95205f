"""Liftings of congruence-lattice diagrams and their verification.

A lifting pairs a diagram of lattices with a natural family of isomorphisms
from its nodewise congruence lattices onto a target semilattice diagram.
Verification is exhaustive: a LatticeDiagram's laws are checked where it
enters and hold by construction where the library builds it, and
verify_lifting checks that every xi is an isomorphism and every naturality
square; these imply the target's functor laws.  On top of valid liftings
of chain diagrams we search for congruence chains, check directness, and
extract the embedding of the generating partial lattice into the top node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .congruence import (
    ConcMap,
    Congruence,
    JoinIrreducibles,
    _sends_chain,
    _shape,
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
    PartialLattice,
    _assignments,
    _same_lattice,
    _same_or_dual,
    chain_order,
    dual,
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
    failures: list
    ok = property(lambda self: not self.failures)

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None

    def to_json(self):
        return {"ok": self.ok,
                "failures": [[str(x) for x in f] for f in self.failures]}


def identity_lifting(D: LatticeDiagram) -> Lifting:
    """The tautological lifting of Conc applied to D: one identity xi per
    J(Con), so nodes that share a lattice share their xi."""
    S = apply_conc(D)
    identities = {J: ConcMap.identity(J) for J in set(S.J.values())}
    return Lifting(D, S, {n: identities[S.J[n]] for n in D.poset.elements})


def dual_diagram(D: LatticeDiagram) -> LatticeDiagram:
    """Dualize every lattice of the diagram, keeping the transition maps.
    Each lattice object is dualized once and each edge object mapped once,
    so the dual shares what D shares."""
    duals = {L: dual(L) for L in set(D.lattices.values())}
    lattices = {n: duals[D.lattices[n]] for n in D.poset.elements}
    maps, edges = {}, {}
    for (p, q), f in D.maps.items():
        key = (f, lattices[p], lattices[q])
        if key not in edges:
            edges[key] = Homomorphism._trusted(lattices[p], lattices[q], f.mapping)
        maps[(p, q)] = edges[key]
    # a bounded homomorphism L -> M is one L^d -> M^d, so the dual is lawful
    return LatticeDiagram._trusted(D.poset, lattices, maps)


def dual_lifting(lift: Lifting) -> Lifting:
    """The dual of a lifting.  A lattice and its dual have the same
    congruences, and J(Con dual L) lists them in the same canonical order as
    J(Con L), so each xi passes across unchanged."""
    return Lifting(dual_diagram(lift.source), lift.target, dict(lift.xi))


def verify_lifting(lift: Lifting) -> LiftingReport:
    """Exhaustive verification; collects failures instead of raising.

    The source diagram's laws were checked where it entered or hold by its
    construction (see LatticeDiagram).  Checks that every xi is present
    ("missing-xi"), has the shape of its node's J(Con) ("xi-wrong-shape")
    and is an isomorphism ("xi-not-iso"), and, once those hold and each
    xi's source has the lattice of its node or its dual, every naturality
    square xi_Q . Conc(g_PQ) = target_PQ . xi_P on every p <= q, p = q
    included ("naturality"); a missing target edge fails its square.  The
    target's functor laws are implied, not checked: with B lawful, every xi
    invertible and every square commuting, target_PQ =
    xi_Q . Conc(g_PQ) . xi_P^-1, a composite of functors.  At most
    MAX_LIFTING_FAILURES failures are kept, in poset order.

    Every node and pair gets its own verdict, but each distinct check runs
    once in the source's memo (ConcMemo.once), across calls: an isomorphism
    test once per xi arrays (and join_preserving), a square once per the
    eight arrays it reads (0 and the images of its four maps).
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
        elif not B.memo.once("xi-iso", (x.zero, x.images, x.source.leq, x.target.leq),
                             lambda: x.isomorphism, x.join_preserving):
            failures.append(("xi-not-iso", p))
    if not failures:
        # each xi must start at J(Con) of its node's lattice or of its dual
        failures = [("xi-wrong-shape", p) for p in poset.elements
                    if not _same_or_dual(lift.xi[p].source.host, B.lattices[p])]
    if not failures:
        for (p, q) in poset.pairs():
            xp, xq = lift.xi[p], lift.xi[q]
            cf = B.memo.conc(B.maps[(p, q)], xp.source, xq.source)
            s = S.maps.get((p, q))
            if s is None or not B.memo.once(
                    "square", (xq.zero, xq.images, cf.zero, cf.images,
                               s.zero, s.images, xp.zero, xp.images),
                    lambda: xq.commutes(cf, s, xp)):
                failures.append(("naturality", p, q))
    return LiftingReport(failures[:MAX_LIFTING_FAILURES])


# --- congruence chains inside a lifting ---

def _chain_paths(B, ui, vi, J: JoinIrreducibles):
    """The congruence chains of B from element index ui to vi, as lists of
    element indices, with no step congruence built; J = J(Con B) is Boolean.

    A qualifying chain steps through distinct atoms of Con B, one per step,
    exhausting them; steps need not be covers of B.  Deterministic order
    (next element by canonical index).  Each element tried as a next step
    counts one step against CHAIN_SEARCH_BUDGET; the elements the path has
    already stepped to are skipped without counting.
    """
    n_atoms = len(J)
    if ui == vi:
        return [[ui]] if n_atoms == 0 else []
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
    return [[ui, *steps] for steps in found]


def _witness(node, B, J: JoinIrreducibles, path, direct=None) -> ChainWitness:
    """The ChainWitness of an index path of B that _chain_paths found: its
    labels, and each step's atom of Con B, read off J."""
    theta = atom_steps(J)
    return ChainWitness(node, tuple(B.labels[i] for i in path),
                        tuple(Congruence.from_rep(B, J.cons[theta(a, b)].block_of)
                              for a, b in zip(path, path[1:])), direct)


def find_congruence_chains(B, u, v, J: Optional[JoinIrreducibles] = None):
    """All congruence chains of B with extremities u and v, in the order and
    under the budget of _chain_paths.  Requires Con B Boolean."""
    J = boolean_J(B, J)
    return [_witness(None, B, J, path)
            for path in _chain_paths(B, B.index(u), B.index(v), J)]


def _direct_paths(lift: Lifting, node, chain):
    """The node's lattice L and, in _chain_paths order, (index path,
    direct?) for each congruence chain of L between its bounds, directness
    for (xi_node, the target's chain lattice C); CritlatError when the node
    of `chain` is not in the diagram.

    Searched once in the source's memo (ConcMemo.once), keyed by everything
    the search and _sends_chain read: L's and C's shapes (size and covers
    fix their order and bounds), whether xi's target is hosted on C, and
    xi's zero and images and the leq, _gen and _below of both its J (a J and
    its re-hosts share these and have one shape; a host and its dual give
    the same Theta).
    """
    L = lift.source.lattices.get(node)
    if L is None:
        raise CritlatError(f"chain {chain} missing from the diagram")
    xi, C = lift.xi[node], lift.target.J[node].host

    def search():
        c_elems = [C.index(c) for c in chain_order(C)]
        J = boolean_J(L, xi.source)
        return [(path, _sends_chain(xi, path, C, c_elems))
                for path in _chain_paths(L, L.index(L.bottom), L.index(L.top), J)]

    arrays = (xi.zero, xi.images, *(getattr(J, name) for J in (xi.source, xi.target)
                                    for name in ("leq", "_gen", "_below")))
    return L, lift.source.memo.once("chains", arrays, search, _shape(L), _shape(C),
                                    _same_lattice(xi.target.host, C))


def direct_chains_at(lift: Lifting, node):
    """Congruence chains of the lattice at `node` between its bounds, each
    tagged with its directness for (xi_node, target chain).  Every diagram
    edge keeps bounds, so these are the images of the bottom node's bounds.
    The search is _direct_paths'; CritlatError when the node is not in the
    diagram."""
    L, paths = _direct_paths(lift, node, node)
    return [_witness(node, L, lift.xi[node].source, path, direct) for path, direct in paths]


# --- the embedding extracted from a good lifting ---

@dataclass
class EmbeddingReport:
    mapping: dict
    operation_checks: list      # (kind, x, y, ok)
    congruence_checks: list     # (x, y, ok)
    coherence_checks: list      # (chain, ok)
    dualized: bool = False
    injective = property(lambda self: len(set(self.mapping.values())) == len(self.mapping))

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
    raises VerificationFailed.  Nodes with the same search input share one
    chain search (_direct_paths); each node still gets its own chain, read
    on its own labels.
    """
    B = lift.source
    poset = B.poset
    if not isinstance(poset, IndexPoset):
        raise CritlatError("extract_embedding needs a chain-diagram lifting")
    L = lift.target.J[TOP].host
    K = PartialLattice(L, subset)
    B_top = B.lattices[TOP]
    bot, top = L.bottom, L.top

    def first_direct(chain):
        # the labels of the first direct chain at the node of `chain`
        node = node_of(chain)
        M, paths = _direct_paths(lift, node, chain)
        path = next((p for p, direct in paths if direct), None)
        if path is None:
            raise MissingDirectChain(node)
        return [M.labels[i] for i in path]

    interior = [x for x in K.labels if x not in (bot, top)]
    h = {bot: B_top.bottom, top: B_top.top}
    t_mid = {}
    for x in interior:
        cx = (bot, x, top)
        t_mid[x] = first_direct(cx)[1]
        h[x] = B.maps[(node_of(cx), TOP)].apply(t_mid[x])

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
        dw = first_direct(c)
        okc = True
        for k, x in enumerate(c[1:-1]):
            cx = (bot, x, top)
            pair = node_of(cx, c)
            a = B.maps[(node_of(cx), pair)].apply(t_mid[x])
            b = B.maps[(node_d, pair)].apply(dw[k + 1])
            okc = okc and (a == b)
        coherence.append((c, okc))

    pairs = list(itertools.combinations(K.labels, 2))
    oks = lift.xi[TOP].sends_principal(
        [B_top.index(h[x]) for x, _ in pairs], [B_top.index(h[y]) for _, y in pairs],
        L, [L.index(x) for x, _ in pairs], [L.index(y) for _, y in pairs])
    con_checks = [(x, y, bool(ok)) for (x, y), ok in zip(pairs, oks)]

    report = EmbeddingReport(h, op_checks, con_checks, coherence)
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
    return h, replace(report, dualized=True)


# --- the directing property on a concrete lifting ---

def check_directing_property(lift: Lifting, c1, c2, c3):
    """Verify that every congruence chain at the c3 node is direct, given
    direct chains at the c1 and c2 nodes (raises HypothesisUnmet without
    them).  Returns (True, None) or (False, counterexample ChainWitness).
    Nodes with the same search input share one chain search
    (_direct_paths); each node still gets its own verdict, and only the
    counterexample is built with its step congruences.  CritlatError when
    a chain's node is not in the diagram."""
    for c in (c1, c2):
        node = node_of(tuple(c))
        if not any(direct for _, direct in _direct_paths(lift, node, tuple(c))[1]):
            raise HypothesisUnmet(f"no direct congruence chain at {node}")
    node = node_of(tuple(c3))
    L, paths = _direct_paths(lift, node, tuple(c3))
    bad = next((p for p, direct in paths if not direct), None)
    if bad is None:
        return True, None
    return False, _witness(node, L, lift.xi[node].source, bad, False)


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
    """The bundle of a lifting: per node, the label partitions of theta and
    xi(theta) for each congruence theta of the source, in the canonical
    order of Con.  Con is built for the source nodes only."""
    xi = {}
    for n in lift.source.poset.elements:
        x, con = lift.xi[n], con_lattice(lift.source.lattices[n])
        images = x.target.congruences(x.on_masks(con.masks))
        xi[str(n)] = [[s.label_blocks(), t.label_blocks()] for s, t in zip(con.cons, images)]
    return {"schema": 1,
            "source": diagram_to_json(lift.source),
            "target": diagram_to_json(lift.target.of_diagram),
            "xi": xi}


def _xi_from_pairs(JS: JoinIrreducibles, JT: JoinIrreducibles, entries, node) -> ConcMap:
    """xi at node from its listed (source, target) partition pairs, each read
    as two down-set masks over JS and JT.  They list each congruence once iff
    the source masks are distinct, hold the empty one, and hold m | down j
    for each listed m and member j: every down-set is reached from the empty
    one by adding down j's.  xi is given by the pairs at 0 and at each down
    j, and preserves joins iff every other pair agrees."""
    pairs = [(JS.mask_of(Congruence.from_label_blocks(JS.host, sb).block_of),
              JT.mask_of(Congruence.from_label_blocks(JT.host, tb).block_of))
             for sb, tb in entries]
    source = np.array([s for s, _ in pairs], dtype=bool).reshape(len(pairs), len(JS))
    target = np.array([t for _, t in pairs], dtype=bool)
    at, zero, downs = {m.tobytes(): i for i, m in enumerate(source)}, bytes(len(JS)), JS.leq.T
    if len(at) != len(pairs) or zero not in at \
            or not all(row.tobytes() in at for m in source for row in m | downs):
        raise FormatError(f"bad lifting bundle: xi at {node} does not list "
                          "each congruence of its source exactly once")
    cm = ConcMap(JS, JT, target[at[zero]], target[[at[d.tobytes()] for d in downs]])
    cm.join_preserving = bool((cm.on_masks(source) == target).all())
    return cm


def lifting_from_json(obj) -> Lifting:
    """The lifting of a bundle written by lifting_to_json; FormatError when
    the bundle does not have that shape: its "schema" is not the integer 1,
    an xi key names no source node, or the xi of a node does not list each
    congruence of its source exactly once.  No Con is built: each xi is
    read on J(Con) of its node's source and target (_xi_from_pairs)."""
    try:
        schema = obj.get("schema")
        if type(schema) is not int or schema != 1:
            raise FormatError("bad lifting bundle: \"schema\" must be 1")
        src = diagram_from_json(obj["source"])
        tgt = diagram_from_json(obj["target"])
        unknown = sorted(set(obj["xi"]) - {str(n) for n in src.poset.elements})
        if unknown:
            raise FormatError(f"bad lifting bundle: xi key {unknown[0]!r} names no node")
        S = apply_conc(tgt)
        xi = {}
        for n in src.poset.elements:
            JS, JT = src.memo.J(src.lattices[n]), S.J[n]
            xi[n] = _xi_from_pairs(JS, JT, obj["xi"][str(n)], n)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"bad lifting bundle: {exc!r}") from None
    return Lifting(src, S, xi)
