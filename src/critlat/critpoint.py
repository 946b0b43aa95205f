"""The end-to-end decision: is the critical point between the varieties
generated by two finite lattices infinite, or at most aleph-two?

Containment of the generated varieties (in either orientation) forces the
compact congruence classes to nest, so the critical point is infinite.
Otherwise the dichotomy for lattice varieties whose simple members have a
prime interval (automatic for finitely generated ones) caps the critical
point at aleph-two, and a separating subdirectly irreducible quotient is
reported when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lattice import dual, is_isomorphic
from .variety import (
    HS_TUPLE_BUDGET,
    ContainmentChecks,
    SIQuotient,
    VarCertificate,
)

INFINITE = "Infinite"
AT_MOST_ALEPH2 = "AtMostAleph2"


@dataclass
class CritVerdict:
    """The crit-gate decision, read off its two containment certificates."""
    cert_plain: VarCertificate
    cert_dual: VarCertificate
    separating_si: Optional[SIQuotient]
    contain_plain = property(lambda self: self.cert_plain.holds)
    contain_dual = property(lambda self: self.cert_dual.holds)

    @property
    def verdict(self):
        return INFINITE if self.contain_plain or self.contain_dual else AT_MOST_ALEPH2

    @property
    def justification(self):
        if self.verdict == AT_MOST_ALEPH2:
            return ("Var K lies in neither Var L nor its dual; by the dichotomy for "
                    "finitely generated lattice varieties the compact congruence classes "
                    "separate at cardinality at most aleph-two.")
        side = "Var L" if self.contain_plain else "the dual of Var L"
        return (f"Var K is contained in {side}; compact congruence classes "
                "transfer along containment and dualization, so every member's "
                "congruence lattice already occurs over Var L.")

    def to_json(self):
        out = {
            "schema": 1,
            "verdict": self.verdict,
            "var_leq": self.cert_plain.to_json(),
            "var_leq_dual": self.cert_dual.to_json(),
            "justification": self.justification,
        }
        if self.separating_si is not None:
            out["separating_si"] = self.separating_si.to_json()
        return out


def crit_gate(K, L, max_subuniverses=HS_TUPLE_BUDGET) -> CritVerdict:
    """Classify the critical point between Var K and Var L as infinite or at
    most aleph-two.

    Infinite exactly when Var K lands in Var L or its dual; the certificates
    replay through hs_member.  The separating SI quotient (one outside both
    HS(L) and HS(dual L)) backs the aleph-two verdict; it can be absent when
    distinct SI quotients fail on the two orientations separately.
    """
    Ld = dual(L)
    checks = ContainmentChecks(max_subuniverses)
    a, cert_a = checks.var_leq(K, L)
    b, cert_b = checks.var_leq(K, Ld)
    return CritVerdict(cert_a, cert_b, None if a or b else checks.separating_si(K, L, Ld))


@dataclass
class ConcReport:
    k_in_l: bool
    l_in_k: bool
    k_in_dual_l: bool
    l_in_dual_k: bool
    isomorphic: bool
    dually_isomorphic: bool
    # Conc(Var K) is a subset of Conc(Var L), and back
    conc_forward = property(lambda self: self.k_in_l or self.k_in_dual_l)
    conc_backward = property(lambda self: self.l_in_k or self.l_in_dual_k)
    conc_equal = property(lambda self: self.conc_forward and self.conc_backward)

    def to_json(self):
        return {
            "schema": 1,
            "var_K_in_L": self.k_in_l,
            "var_L_in_K": self.l_in_k,
            "var_K_in_dual_L": self.k_in_dual_l,
            "var_L_in_dual_K": self.l_in_dual_k,
            "conc_class_forward": self.conc_forward,
            "conc_class_backward": self.conc_backward,
            "conc_class_equal": self.conc_equal,
            "isomorphic": self.isomorphic,
            "dually_isomorphic": self.dually_isomorphic,
        }


def conc_class_report(K, L, max_subuniverses=HS_TUPLE_BUDGET) -> ConcReport:
    """All four variety containments plus the implied relation between the
    compact congruence classes.

    The congruence class of Var K sits inside that of Var L exactly when
    Var K lies in Var L or its dual (congruence lattices are blind to
    dualization).
    """
    Ld, Kd = dual(L), dual(K)
    checks = ContainmentChecks(max_subuniverses)
    a, _ = checks.var_leq(K, L)
    b, _ = checks.var_leq(L, K)
    c, _ = checks.var_leq(K, Ld)
    d, _ = checks.var_leq(L, Kd)
    return ConcReport(
        a, b, c, d,
        isomorphic=is_isomorphic(K, L) is not None,
        dually_isomorphic=is_isomorphic(K, Ld) is not None,
    )
