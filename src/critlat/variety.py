"""Variety containment for finite lattices via subdirectly irreducible quotients.

For finite lattices K, L the containment Var K <= Var L reduces to checking
that every subdirectly irreducible quotient of K is a quotient of a sublattice
of L (Jonsson's Lemma for congruence-distributive varieties; lattice varieties
are congruence-distributive).  All searches are exhaustive within explicit
budgets and produce replayable certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .congruence import Congruence, JoinIrreducibles
from .errors import BudgetExceeded, NotSubdirectlyIrreducible
from .lattice import (
    Homomorphism,
    dual,
    is_isomorphic,
    product,
    product_index,
    quotient,
    _closure,
    _dependency_ends,
    _extend_graph,
    _is_modular,
    _neighbours,
    _require_dense,
    _sublattice_from_indices,
    _truncate,
)

HS_TUPLE_BUDGET = 1_000_000


@dataclass(frozen=True)
class SIQuotient:
    """A subdirectly irreducible quotient K/theta with its monolith."""
    theta: Congruence
    lattice: object
    monolith: Congruence

    def to_json(self):
        return {
            "theta": self.theta.label_blocks(),
            "elements": list(self.lattice.labels),
            "monolith": self.monolith.label_blocks(),
        }


@dataclass(frozen=True)
class HSWitness:
    """M isomorphic to S/theta for a sublattice S of L."""
    sublattice: object
    inclusion: Homomorphism
    theta: Congruence
    iso: Homomorphism  # S/theta -> M

    def to_json(self):
        return {
            "sublattice": list(self.sublattice.labels),
            "theta": self.theta.label_blocks(),
            "iso": self.iso.as_label_dict(),
        }


def _si_congruences(K):
    """(theta, K/theta, projection, monolith) for every congruence theta
    with a subdirectly irreducible quotient, in canonical Con order.

    Con(K/theta) is the interval [theta, 1] of Con K, so K/theta is
    subdirectly irreducible exactly when theta is meet-irreducible, with
    monolith theta*/theta for the unique upper cover theta*.  Both are read
    off J(Con K); Con K itself is never built.
    """
    out = []
    for theta, star in JoinIrreducibles(K).meet_irreducibles():
        Q, proj = quotient(K, theta)
        mono = Congruence.from_rep(Q, [star.block_of[b[0]] for b in theta.blocks])
        out.append((theta, Q, proj, mono))
    return out


def si_quotients(K):
    """All subdirectly irreducible quotients of K, deduplicated up to isomorphism.

    Deterministic: congruences are tried in the canonical Con order and the
    first representative of each isomorphism class is kept.
    """
    out = []
    for theta, Q, _proj, mono in _si_congruences(K):
        if any(is_isomorphic(prev.lattice, Q) is not None for prev in out):
            continue
        out.append(SIQuotient(theta, Q, mono))
    return out


def subdirect_decomposition(K):
    """Congruences with SI quotient meeting to zero, plus the (undeduplicated)
    embedding of K into the product of the corresponding quotients."""
    found = _si_congruences(K)
    thetas = [theta for theta, _, _, _ in found]
    quotients = [Q for _, Q, _, _ in found]
    projs = [proj for _, _, proj, _ in found]
    if not quotients:
        return thetas, None, None
    P = product(*quotients)
    mapping = product_index([Q.n for Q in quotients], [p.mapping for p in projs])
    emb = Homomorphism(K, P, mapping)
    return thetas, P, emb


def _tuple_budget(M, L, limit):
    """One token per generator tuple an HS search for M in L closes, in M
    while seeking its least generating set and then in L; the call for the
    token after `limit` refuses the search."""
    yield from range(limit)
    raise BudgetExceeded(f"HS search for {M!r} in {L!r} stopped after "
                         f"{max(limit, 0)} generator tuples (budget {limit})")


def _required_generators(M):
    """The elements of M that are neither the join of two elements below
    them nor the meet of two above them, so no term in the others: those
    with at most one lower and at most one upper cover.  Two lower covers
    join to x; below a single lower cover everything joins below it."""
    ups, downs = _neighbours(M.n, M.covers)
    return [x for x in range(M.n) if len(ups[x]) < 2 and len(downs[x]) < 2]


def _least_generating_set(M, budget):
    """The least generating set of M: smallest size first, then
    lexicographic on M's element indices.  Each set tried takes a token of
    `budget` (_tuple_budget).

    Every generating set holds _required_generators(M); only the remaining
    elements are chosen from.  Adding the same fixed set to every choice
    keeps the lexicographic order of the choices.
    """
    required = _required_generators(M)
    rest = [x for x in range(M.n) if x not in required]
    tables = (M._meet.tolist(), M._join.tolist()) * 2
    for extra in range(len(rest)):
        for chosen in itertools.combinations(rest, extra):
            next(budget)
            gens = sorted(required + list(chosen))
            if len(_closure(M.n, gens, tables)) == M.n:
                return gens
    return list(range(M.n))


def _least_functional_tuple(M, L, gens, budget):
    """The lexicographically least a in L^k whose pairs (a_i, gens_i) close
    to the graph of a map, as (f, members), or None.

    Depth-first over prefixes: a prefix whose closure is already
    non-functional is never extended, since closing more pairs keeps the
    offending pair.  Each closed prefix takes a token of `budget`
    (_tuple_budget).
    """
    tables = (L._meet.tolist(), L._join.tolist(),
              M._meet.tolist(), M._join.tolist())
    f = [-1] * L.n
    members = []
    marks = []      # len(members) before each chosen a_i
    chosen = []
    cand = 0
    while len(chosen) < len(gens):
        if cand == L.n:
            if not chosen:
                return None
            _truncate(f, members, marks.pop())
            cand = chosen.pop() + 1
            continue
        next(budget)
        mark = len(members)
        if _extend_graph(f, members, cand, gens[len(chosen)], tables):
            marks.append(mark)
            chosen.append(cand)
            cand = 0
        else:
            cand += 1
    return f, members


def _law_excludes(M, L):
    """Whether L satisfies the modular or the distributive law and M fails
    it.  H and S preserve identities, so then M is not in HS(L)."""
    if M.n < 5:     # M3 and N5 are the smallest lattices that fail a law
        return False
    if not _is_modular(M):
        return _is_modular(L)
    return bool(_dependency_ends(M)[0].any() and not _dependency_ends(L)[0].any())


def hs_member(M, L, max_subuniverses=HS_TUPLE_BUDGET) -> Optional[HSWitness]:
    """Exhaustive search for M in HS(L): a quotient of a sublattice of L.

    If S maps onto M, so does the sublattice generated by preimages of a
    generating set of M.  So with g the least generating set of M, the
    search closes {(a_i, g_i)} in L x M for each a in L^k in lexicographic
    order; the first closure that is the graph of a map S -> M gives the
    witness: S, the kernel theta of the map, and the isomorphism
    S/theta -> M.  `max_subuniverses` caps the generator tuples closed, in M
    and then in L (_tuple_budget).  No search runs when L is too small or
    too short for M, or satisfies a law that M fails (_law_excludes).  A
    lazy product is refused as L, and as M when it fits in L.
    """
    _require_dense(L, "HS search needs")
    # the least elements of the blocks of a chain in S/theta form a chain in
    # S, so no member of HS(L) is larger or taller than L
    if M.n > L.n or M.height() > L.height():
        return None
    _require_dense(M, "HS search needs")
    if _law_excludes(M, L):
        return None
    budget = _tuple_budget(M, L, max_subuniverses)
    found = _least_functional_tuple(M, L, _least_generating_set(M, budget), budget)
    if found is None:
        return None
    f, members = found
    keys = sorted(members)
    S, incl = _sublattice_from_indices(L, keys)
    theta = Congruence.from_rep(S, np.array([f[i] for i in keys]))
    Q, _ = quotient(S, theta)
    iso = Homomorphism(Q, M, [f[keys[b[0]]] for b in theta.blocks])
    return HSWitness(S, incl, theta, iso)


@dataclass(frozen=True)
class VarCertificate:
    """Evidence for a Var K <= Var L decision: it holds iff no SI quotient
    of K fails."""
    si_list: tuple
    witnesses: tuple  # HSWitness per SI quotient when holds
    failing_si: Optional[SIQuotient]
    holds = property(lambda self: self.failing_si is None)

    def to_json(self):
        out = {"holds": self.holds,
               "si_quotients": [s.to_json() for s in self.si_list]}
        if self.holds:
            out["witnesses"] = [w.to_json() for w in self.witnesses]
        else:
            out["failing_si"] = self.failing_si.to_json()
        return out


class ContainmentChecks:
    """Variety containments that share their work: each lattice's SI
    quotients and each hs_member(s, L) answer are computed at most once.

    Every entry point of this module and of critpoint decides through one
    instance, so a decision that asks about Var K <= Var L and
    Var K <= Var dual(L) searches K's SI quotients once.  Lattices are
    remembered by identity; pass the same dual object to every call.
    """

    def __init__(self, max_subuniverses=HS_TUPLE_BUDGET):
        self.max_subuniverses = max_subuniverses
        self._sis = {}
        self._hs = {}

    def si_quotients(self, K):
        if K not in self._sis:
            self._sis[K] = tuple(si_quotients(K))
        return self._sis[K]

    def hs_member(self, s: SIQuotient, L) -> Optional[HSWitness]:
        key = (s.lattice, L)
        if key not in self._hs:
            self._hs[key] = hs_member(s.lattice, L, self.max_subuniverses)
        return self._hs[key]

    def var_leq(self, K, L):
        """(holds, VarCertificate) for Var K <= Var L; stops at the first SI
        quotient of K outside HS(L)."""
        sis = self.si_quotients(K)
        witnesses = []
        for s in sis:
            w = self.hs_member(s, L)
            if w is None:
                return False, VarCertificate(sis, (), s)
            witnesses.append(w)
        return True, VarCertificate(sis, tuple(witnesses), None)

    def separating_si(self, K, L, Ld) -> Optional[SIQuotient]:
        """The first SI quotient of K in neither HS(L) nor HS(Ld)."""
        for s in self.si_quotients(K):
            if self.hs_member(s, L) is None and self.hs_member(s, Ld) is None:
                return s
        return None


def var_leq(K, L, max_subuniverses=HS_TUPLE_BUDGET):
    """Decide Var K <= Var L: every SI quotient of K must lie in HS(L).

    Returns (bool, VarCertificate).  The reduction is Jonsson's Lemma for
    finitely generated congruence-distributive varieties; see the README for
    the two-line argument.
    """
    return ContainmentChecks(max_subuniverses).var_leq(K, L)


def find_separating_si(K, L) -> Optional[SIQuotient]:
    """An SI quotient of K lying in neither HS(L) nor HS(dual L), if any."""
    return ContainmentChecks().separating_si(K, L, dual(L))


def si_pair_classifier(K, L) -> tuple:
    """Compare two finite SI lattices by the varieties they generate.

    Returns (verdict, witness) with verdict one of "Isomorphic",
    "DuallyIsomorphic", "DistinctConcClasses", "Indeterminate".  Equal
    compact-congruence classes force one of the first two outcomes for SI
    generators; plain isomorphism is tried before dual isomorphism.
    """
    for X in (K, L):
        # SI: Con X has one atom, the single minimal member of J(Con X)
        if len(JoinIrreducibles(X).minimal()) != 1:
            raise NotSubdirectlyIrreducible(f"{X!r} is not subdirectly irreducible")
    Ld = dual(L)
    checks = ContainmentChecks()
    try:
        a, _ = checks.var_leq(K, L)
        b, _ = checks.var_leq(L, K)
        c, _ = checks.var_leq(K, Ld)
        d, _ = checks.var_leq(Ld, K)
    except BudgetExceeded:
        return "Indeterminate", None
    conc_equal = (a or c) and (b or d)
    if not conc_equal:
        return "DistinctConcClasses", None
    iso = is_isomorphic(K, L)
    if iso is not None:
        return "Isomorphic", iso
    iso = is_isomorphic(K, Ld)
    if iso is not None:
        return "DuallyIsomorphic", iso
    # equal Conc classes without either isomorphism would contradict the
    # classification of SI pairs; surface it rather than guessing
    return "Indeterminate", None
