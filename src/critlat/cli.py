"""critlat command line: parse lattice files, run the library operations,
emit JSON certificates and DOT renderings.

Inputs are either paths to lattice JSON files or builtin names (2, chain:n,
M:n, N5, bool:n, F22).  Exit codes: 0 success (crit-gate: Infinite),
3 crit-gate AtMostAleph2, 1 lift-check on a well-formed lifting that fails
verification, 2 parse or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import critpoint, diagrams, liftings, variety
from .congruence import con_lattice, is_boolean, is_simple
from .errors import CritlatError
from .lattice import (
    builtin,
    dual,
    is_builtin,
    is_isomorphic,
    lattice_dot,
    lattice_to_json,
    load_json,
    load_lattice,
)

def resolve_lattice(spec: str):
    if is_builtin(spec):
        return builtin(spec)
    if os.path.exists(spec):
        return load_lattice(spec)
    raise CritlatError(f"no such file or builtin lattice: {spec!r}")


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _chain_arg(s: str):
    return tuple(s.split(","))


def _subset(args, L):
    return args.subset.split(",") if args.subset else list(L.labels)


def cmd_validate(args):
    L = resolve_lattice(args.lattice)
    if args.json:
        _emit({"schema": 1, **lattice_to_json(L)})
    else:
        print(f"ok: {L.name or 'lattice'}, |L| = {L.n}, height = {L.height()}, "
              f"bounds = {L.bottom}/{L.top}")
    return 0


def cmd_con(args):
    L = resolve_lattice(args.lattice)
    con = con_lattice(L)
    simple = len(con.J) == 1
    boolean = is_boolean(con)
    if args.json:
        _emit({
            "schema": 1,
            "simple": simple,
            "size": con.n,
            "boolean": boolean,
            "atoms": len(con.J.minimal()),
            "congruences": [t.label_blocks() for t in con.cons],
        })
    else:
        print(f"simple: {str(simple).lower()}, |Con| = {con.n}")
        print(f"boolean: {str(boolean).lower()}, atoms: {len(con.J.minimal())}")
    return 0


def cmd_simple(args):
    L = resolve_lattice(args.lattice)
    print(str(is_simple(L)).lower())
    return 0


def cmd_si(args):
    K = resolve_lattice(args.lattice)
    sis = variety.si_quotients(K)
    if args.json:
        _emit({"schema": 1, "si_quotients": [s.to_json() for s in sis]})
    else:
        print(f"{len(sis)} subdirectly irreducible quotient(s)")
        for s in sis:
            print(f"  size {s.lattice.n}, theta blocks "
                  f"{s.theta.label_blocks()}")
    return 0


def cmd_hs_member(args):
    M = resolve_lattice(args.member)
    L = resolve_lattice(args.lattice)
    w = variety.hs_member(M, L, args.max_subuniverses)
    if args.json:
        _emit({"schema": 1,
                     "member": w is not None,
                     "witness": w.to_json() if w else None})
    else:
        print("absent" if w is None else
              f"witness: sublattice {list(w.sublattice.labels)}, "
              f"theta {w.theta.label_blocks()}")
    return 0


def cmd_var_leq(args):
    K = resolve_lattice(args.k)
    L = resolve_lattice(args.l)
    holds, cert = variety.var_leq(K, L, args.max_subuniverses)
    if args.json:
        _emit({"schema": 1, **cert.to_json()})
    else:
        print(str(holds).lower())
    return 0


def cmd_crit_gate(args):
    K = resolve_lattice(args.k)
    L = resolve_lattice(args.l)
    verdict = critpoint.crit_gate(K, L, args.max_subuniverses)
    if args.json:
        _emit(verdict.to_json())
    else:
        print(f"crit(Var K, Var L): "
              f"{'infinite' if verdict.verdict == critpoint.INFINITE else 'at most aleph-2'}")
        print(verdict.justification)
    return 0 if verdict.verdict == critpoint.INFINITE else 3


def cmd_conc_report(args):
    K = resolve_lattice(args.k)
    L = resolve_lattice(args.l)
    rep = critpoint.conc_class_report(K, L, args.max_subuniverses)
    if args.json:
        _emit(rep.to_json())
    else:
        print(f"Var K <= Var L: {str(rep.k_in_l).lower()}; "
              f"Var L <= Var K: {str(rep.l_in_k).lower()}")
        print(f"Var K <= dual Var L: {str(rep.k_in_dual_l).lower()}; "
              f"Var L <= dual Var K: {str(rep.l_in_dual_k).lower()}")
        print(f"conc classes equal: {str(rep.conc_equal).lower()}")
    return 0


def cmd_iso(args):
    K = resolve_lattice(args.k)
    L = resolve_lattice(args.l)
    h = is_isomorphic(K, L)
    if args.json:
        _emit({"schema": 1,
                     "isomorphic": h is not None,
                     "mapping": h.as_label_dict() if h else None})
    else:
        print("none" if h is None else json.dumps(h.as_label_dict(), sort_keys=True))
    return 0


def cmd_dual(args):
    L = resolve_lattice(args.lattice)
    _emit({"schema": 1, **lattice_to_json(dual(L))})
    return 0


def _diagram_summary(D):
    return {str(n): D.lattices[n].n for n in D.poset.elements}


def cmd_chain_diagram(args):
    L = resolve_lattice(args.lattice)
    D, chains = diagrams.chain_diagram_of_partial(L, _subset(args, L))
    if args.dot:
        print(diagrams.export_dot(D), end="")
    elif args.json:
        _emit({"schema": 1, **diagrams.diagram_to_json(D)})
    else:
        print(f"{len(D.poset.elements)} nodes over {len(chains)} chains")
        print(json.dumps(_diagram_summary(D), indent=2, sort_keys=True))
    return 0


def cmd_directing_diagram(args):
    gen = resolve_lattice(args.generator)
    D = diagrams.directing_diagram(gen, _chain_arg(args.c1),
                                   _chain_arg(args.c2), _chain_arg(args.c3))
    if args.dot:
        print(diagrams.export_dot(D), end="")
    elif args.json:
        _emit({"schema": 1, **diagrams.diagram_to_json(D)})
    else:
        print(json.dumps(_diagram_summary(D), indent=2, sort_keys=True))
    return 0


def cmd_glued_diagram(args):
    L = resolve_lattice(args.lattice)
    gen = resolve_lattice(args.generator)
    g = diagrams.glued_diagram(L, _subset(args, L), gen)
    print(f"factors: {g.factor_count} (chain diagram + {len(g.triples)} "
          f"directing triples)")
    print(json.dumps(_diagram_summary(g.diagram), indent=2, sort_keys=True))
    return 0


def _lifting_from_args(args):
    if args.bundle:
        return liftings.lifting_from_json(load_json(args.bundle))
    if not (args.identity or args.dual_of):
        raise CritlatError("lift-check needs a bundle, --identity or --dual-of")
    L = resolve_lattice(args.identity if args.identity else args.dual_of)
    D, _ = diagrams.chain_diagram_of_partial(L, list(L.labels))
    lift = liftings.identity_lifting(D)
    if args.dual_of:
        lift = liftings.dual_lifting(lift)
    return lift


def cmd_lift_check(args):
    lift = _lifting_from_args(args)
    rep = liftings.verify_lifting(lift)
    if args.json:
        _emit({"schema": 1, **rep.to_json()})
    else:
        print("valid" if rep.ok else f"invalid: {rep.first_failure}")
    return 0 if rep.ok else 1


def cmd_extract_embedding(args):
    L = resolve_lattice(args.lattice)
    D, _ = diagrams.chain_diagram_of_partial(L, _subset(args, L))
    lift = liftings.identity_lifting(D)
    if args.dual:
        lift = liftings.dual_lifting(lift)
    h, rep = liftings.extract_embedding_auto(lift, _subset(args, L))
    if args.json:
        _emit({"schema": 1, **rep.to_json()})
    else:
        print(f"embedding ok: {str(rep.ok).lower()}, "
              f"dualized: {str(rep.dualized).lower()}")
        print(json.dumps(h, indent=2, sort_keys=True))
    return 0


def cmd_find_chains(args):
    L = resolve_lattice(args.lattice)
    ws = liftings.find_congruence_chains(L, args.u, args.v)
    if args.json:
        _emit({"schema": 1, "chains": [w.to_json() for w in ws]})
    else:
        if not ws:
            print("none")
        for w in ws:
            print(" < ".join(w.elements))
    return 0


def cmd_export_dot(args):
    L = resolve_lattice(args.lattice)
    print(lattice_dot(L), end="")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="critlat",
        description="finite lattice congruence computations and the "
                    "critical-point gate")
    sub = ap.add_subparsers(dest="command", required=True)

    def json_flag(p):
        p.add_argument("--json", action="store_true")

    def hs_flags(p):
        json_flag(p)
        p.add_argument("--max-subuniverses", type=int, default=variety.HS_TUPLE_BUDGET,
                       help="refuse an HS search after it closes this many "
                            "generator tuples (default: %(default)s)")

    p = sub.add_parser("validate", help="validate a lattice file or builtin")
    p.add_argument("lattice")
    json_flag(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("con", help="congruence lattice summary")
    p.add_argument("lattice")
    json_flag(p)
    p.set_defaults(func=cmd_con)

    p = sub.add_parser("simple", help="is the lattice simple")
    p.add_argument("lattice")
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("si", help="subdirectly irreducible quotients")
    p.add_argument("lattice")
    json_flag(p)
    p.set_defaults(func=cmd_si)

    p = sub.add_parser("hs-member", help="is M a quotient of a sublattice of L")
    p.add_argument("member")
    p.add_argument("lattice")
    hs_flags(p)
    p.set_defaults(func=cmd_hs_member)

    p = sub.add_parser("var-leq", help="decide Var K <= Var L")
    p.add_argument("k")
    p.add_argument("l")
    hs_flags(p)
    p.set_defaults(func=cmd_var_leq)

    p = sub.add_parser("crit-gate",
                       help="crit(Var K, Var L): infinite or at most aleph-2")
    p.add_argument("k")
    p.add_argument("l")
    hs_flags(p)
    p.set_defaults(func=cmd_crit_gate)

    p = sub.add_parser("conc-report", help="all four variety containments")
    p.add_argument("k")
    p.add_argument("l")
    hs_flags(p)
    p.set_defaults(func=cmd_conc_report)

    p = sub.add_parser("iso", help="order isomorphism witness")
    p.add_argument("k")
    p.add_argument("l")
    json_flag(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("dual", help="emit the dual lattice as JSON")
    p.add_argument("lattice")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("chain-diagram", help="chain diagram of a lattice")
    p.add_argument("lattice")
    p.add_argument("--subset", default=None,
                   help="comma-separated spanning subset (default: all)")
    p.add_argument("--dot", action="store_true")
    json_flag(p)
    p.set_defaults(func=cmd_chain_diagram)

    p = sub.add_parser("directing-diagram",
                       help="directing diagram over three chains")
    p.add_argument("generator", help="M:3 or N5")
    p.add_argument("c1", help="comma-separated chain, e.g. 0,x1,1")
    p.add_argument("c2")
    p.add_argument("c3")
    p.add_argument("--dot", action="store_true")
    json_flag(p)
    p.set_defaults(func=cmd_directing_diagram)

    p = sub.add_parser("glued-diagram",
                       help="chain diagram glued with directing diagrams")
    p.add_argument("lattice")
    p.add_argument("generator", help="M:3 or N5")
    p.add_argument("--subset", default=None)
    p.set_defaults(func=cmd_glued_diagram)

    p = sub.add_parser("lift-check", help="verify a lifting bundle")
    one = p.add_mutually_exclusive_group()
    one.add_argument("bundle", nargs="?", default=None)
    one.add_argument("--identity", default=None,
                     help="build and check the identity lifting of this lattice")
    one.add_argument("--dual-of", default=None,
                     help="build and check the dual lifting of this lattice")
    json_flag(p)
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("extract-embedding",
                       help="extract the embedding from a chain-diagram lifting")
    p.add_argument("lattice")
    p.add_argument("--subset", default=None)
    p.add_argument("--dual", action="store_true",
                   help="start from the dual lifting")
    json_flag(p)
    p.set_defaults(func=cmd_extract_embedding)

    p = sub.add_parser("find-chains",
                       help="congruence chains between two elements")
    p.add_argument("lattice")
    p.add_argument("u")
    p.add_argument("v")
    json_flag(p)
    p.set_defaults(func=cmd_find_chains)

    p = sub.add_parser("export-dot", help="Hasse diagram in DOT")
    p.add_argument("lattice")
    p.set_defaults(func=cmd_export_dot)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CritlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
