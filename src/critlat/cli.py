"""critlat command line: parse lattice files, run the library operations,
emit JSON certificates and DOT renderings.

Inputs are either paths to lattice JSON files or builtin names (2, chain:n,
M:n, N5, bool:n, F22).  Exit codes: 0 success (crit-gate: Infinite),
3 crit-gate AtMostAleph2, 1 lift-check on a well-formed lifting that fails
verification, 2 parse or validation error.

Each subcommand is declared once, by _command on the function that runs it;
the dispatcher resolves its lattice arguments and prints one rendering of
what it found: DOT under --dot, JSON with "schema": 1 under --json, else text.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

from . import critpoint, diagrams, liftings, variety
from .congruence import con_lattice, is_boolean, is_simple
from .errors import CritlatError
from .lattice import (builtin, dual, is_builtin, is_isomorphic, lattice_dot, lattice_to_json,
                      load_json, load_lattice)

def resolve_lattice(spec: str):
    if is_builtin(spec):
        return builtin(spec)
    if os.path.exists(spec):
        return load_lattice(spec)
    raise CritlatError(f"no such file or builtin lattice: {spec!r}")


class _Found(NamedTuple):
    """What a command found: renderings, each built only if printed, and an exit code."""

    json: Callable[[], dict] | None = None
    text: Callable[[], str] | None = None
    code: int = 0
    dot: Callable[[], str] | None = None


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _dispatch(command, lattices, args):
    """Run command on args and its lattice arguments, resolved in order, and
    print the rendering asked for; return the exit code."""
    found = command(args, *[resolve_lattice(getattr(args, dest)) for dest in lattices])
    if getattr(args, "dot", False):
        print(found.dot(), end="")
    elif getattr(args, "json", False):
        print(_json_text({"schema": 1, **found.json()}))
    else:
        print(found.text())
    return found.code


class _Arg:
    """One argument of a subcommand, as add_argument takes it; a lattice
    argument (builtin name or file) is resolved before the command runs."""

    def __init__(self, *flags, lattice=False, **kw):
        self.flags, self.lattice, self.kw = flags, lattice, kw

    def add_to(self, parser):
        parser.add_argument(*self.flags, **self.kw)


class _Exclusive:
    """Arguments of which at most one may be given."""

    lattice = False

    def __init__(self, *arguments):
        self.arguments = arguments

    def add_to(self, parser):
        group = parser.add_mutually_exclusive_group()
        for argument in self.arguments:
            argument.add_to(group)


_COMMANDS = []


def _command(name, help, *arguments, **defaults):
    """Declare the decorated function as the subcommand name, with its help
    text and its arguments in order; defaults fix the rendering of a command
    that offers one only (dual prints JSON, export-dot DOT).  The function
    takes the parsed arguments and the resolved lattices, returns a _Found."""
    lattices = [argument.flags[0] for argument in arguments if argument.lattice]

    def register(command):
        def add_to(subparsers):
            p = subparsers.add_parser(name, help=help)
            for argument in arguments:
                argument.add_to(p)
            p.set_defaults(func=functools.partial(_dispatch, command, lattices), **defaults)
        _COMMANDS.append(add_to)
        return command
    return register


_LATTICE = _Arg("lattice", lattice=True)
_PAIR = (_Arg("k", lattice=True), _Arg("l", lattice=True))
_GENERATOR = _Arg("generator", lattice=True, help="M:3 or N5")
_JSON = _Arg("--json", action="store_true")
_DOT = _Arg("--dot", action="store_true")
_MAX_SUBUNIVERSES = _Arg("--max-subuniverses", type=int, default=variety.HS_TUPLE_BUDGET,
                         help="refuse an HS search after it closes this many "
                              "generator tuples (default: %(default)s)")


def _subset(args, L):
    return args.subset.split(",") if args.subset else list(L.labels)


def _diagram_summary(D):
    return _json_text({str(n): D.lattices[n].n for n in D.poset.elements})


@_command("validate", "validate a lattice file or builtin", _LATTICE, _JSON)
def cmd_validate(args, L):
    return _Found(lambda: lattice_to_json(L),
                  lambda: f"ok: {L.name or 'lattice'}, |L| = {L.n}, "
                          f"height = {L.height()}, bounds = {L.bottom}/{L.top}")


@_command("con", "congruence lattice summary", _LATTICE, _JSON)
def cmd_con(args, L):
    con = con_lattice(L)
    simple = len(con.J) == 1
    boolean = is_boolean(con)
    atoms = len(con.J.minimal())
    return _Found(lambda: {"simple": simple, "size": con.n, "boolean": boolean, "atoms": atoms,
                           "congruences": [t.label_blocks() for t in con.cons]},
                  lambda: f"simple: {str(simple).lower()}, |Con| = {con.n}\n"
                          f"boolean: {str(boolean).lower()}, atoms: {atoms}")


@_command("simple", "is the lattice simple", _LATTICE)
def cmd_simple(args, L):
    return _Found(text=lambda: str(is_simple(L)).lower())


@_command("si", "subdirectly irreducible quotients", _LATTICE, _JSON)
def cmd_si(args, K):
    sis = variety.si_quotients(K)
    return _Found(lambda: {"si_quotients": [s.to_json() for s in sis]},
                  lambda: "\n".join([f"{len(sis)} subdirectly irreducible quotient(s)"] + [
                      f"  size {s.lattice.n}, theta blocks {s.theta.label_blocks()}"
                      for s in sis]))


@_command("hs-member", "is M a quotient of a sublattice of L",
          _Arg("member", lattice=True), _LATTICE, _JSON, _MAX_SUBUNIVERSES)
def cmd_hs_member(args, M, L):
    w = variety.hs_member(M, L, args.max_subuniverses)
    return _Found(lambda: {"member": w is not None, "witness": w.to_json() if w else None},
                  lambda: "absent" if w is None else
                  f"witness: sublattice {list(w.sublattice.labels)}, "
                  f"theta {w.theta.label_blocks()}")


@_command("var-leq", "decide Var K <= Var L", *_PAIR, _JSON, _MAX_SUBUNIVERSES)
def cmd_var_leq(args, K, L):
    holds, cert = variety.var_leq(K, L, args.max_subuniverses)
    return _Found(cert.to_json, lambda: str(holds).lower())


@_command("crit-gate", "crit(Var K, Var L): infinite or at most aleph-2",
          *_PAIR, _JSON, _MAX_SUBUNIVERSES)
def cmd_crit_gate(args, K, L):
    verdict = critpoint.crit_gate(K, L, args.max_subuniverses)
    infinite = verdict.verdict == critpoint.INFINITE
    return _Found(verdict.to_json,
                  lambda: f"crit(Var K, Var L): {'infinite' if infinite else 'at most aleph-2'}"
                          f"\n{verdict.justification}",
                  0 if infinite else 3)


@_command("conc-report", "all four variety containments", *_PAIR, _JSON, _MAX_SUBUNIVERSES)
def cmd_conc_report(args, K, L):
    rep = critpoint.conc_class_report(K, L, args.max_subuniverses)
    return _Found(rep.to_json,
                  lambda: f"Var K <= Var L: {str(rep.k_in_l).lower()}; "
                          f"Var L <= Var K: {str(rep.l_in_k).lower()}\n"
                          f"Var K <= dual Var L: {str(rep.k_in_dual_l).lower()}; "
                          f"Var L <= dual Var K: {str(rep.l_in_dual_k).lower()}\n"
                          f"conc classes equal: {str(rep.conc_equal).lower()}")


@_command("iso", "order isomorphism witness", *_PAIR, _JSON)
def cmd_iso(args, K, L):
    h = is_isomorphic(K, L)
    return _Found(lambda: {"isomorphic": h is not None,
                           "mapping": h.as_label_dict() if h else None},
                  lambda: "none" if h is None else json.dumps(h.as_label_dict(), sort_keys=True))


@_command("dual", "emit the dual lattice as JSON", _LATTICE, json=True)
def cmd_dual(args, L):
    return _Found(lambda: lattice_to_json(dual(L)))


@_command("chain-diagram", "chain diagram of a lattice", _LATTICE,
          _Arg("--subset", default=None, help="comma-separated spanning subset (default: all)"),
          _DOT, _JSON)
def cmd_chain_diagram(args, L):
    D, chains = diagrams.chain_diagram_of_partial(L, _subset(args, L))
    return _Found(lambda: diagrams.diagram_to_json(D),
                  lambda: f"{len(D.poset.elements)} nodes over {len(chains)} chains\n"
                          f"{_diagram_summary(D)}", dot=lambda: diagrams.export_dot(D))


@_command("directing-diagram", "directing diagram over three chains", _GENERATOR,
          _Arg("c1", help="comma-separated chain, e.g. 0,x1,1"), _Arg("c2"), _Arg("c3"),
          _DOT, _JSON)
def cmd_directing_diagram(args, gen):
    chains = [tuple(c.split(",")) for c in (args.c1, args.c2, args.c3)]
    D = diagrams.directing_diagram(gen, *chains)
    return _Found(lambda: diagrams.diagram_to_json(D), lambda: _diagram_summary(D),
                  dot=lambda: diagrams.export_dot(D))


@_command("glued-diagram", "chain diagram glued with directing diagrams", _LATTICE, _GENERATOR,
          _Arg("--subset", default=None))
def cmd_glued_diagram(args, L, gen):
    g = diagrams.glued_diagram(L, _subset(args, L), gen)
    return _Found(text=lambda: f"factors: {g.factor_count} (chain diagram + {len(g.triples)} "
                               f"directing triples)\n{_diagram_summary(g.diagram)}")


@_command("lift-check", "verify a lifting bundle",
          _Exclusive(_Arg("bundle", nargs="?", default=None),
                     _Arg("--identity", default=None,
                          help="build and check the identity lifting of this lattice"),
                     _Arg("--dual-of", default=None,
                          help="build and check the dual lifting of this lattice")),
          _JSON)
def cmd_lift_check(args):
    if args.bundle:
        lift = liftings.lifting_from_json(load_json(args.bundle))
    elif not (args.identity or args.dual_of):
        raise CritlatError("lift-check needs a bundle, --identity or --dual-of")
    else:
        # the one lattice the dispatcher does not resolve: a bundle excludes it
        L = resolve_lattice(args.identity if args.identity else args.dual_of)
        lift = liftings.identity_lifting(diagrams.chain_diagram_of_partial(L, list(L.labels))[0])
        if args.dual_of:
            lift = liftings.dual_lifting(lift)
    rep = liftings.verify_lifting(lift)
    return _Found(rep.to_json, lambda: "valid" if rep.ok else f"invalid: {rep.first_failure}",
                  0 if rep.ok else 1)


@_command("extract-embedding", "extract the embedding from a chain-diagram lifting", _LATTICE,
          _Arg("--subset", default=None),
          _Arg("--dual", action="store_true", help="start from the dual lifting"), _JSON)
def cmd_extract_embedding(args, L):
    D, _ = diagrams.chain_diagram_of_partial(L, _subset(args, L))
    lift = liftings.identity_lifting(D)
    if args.dual:
        lift = liftings.dual_lifting(lift)
    h, rep = liftings.extract_embedding_auto(lift, _subset(args, L))
    return _Found(rep.to_json, lambda: f"embedding ok: {str(rep.ok).lower()}, "
                                       f"dualized: {str(rep.dualized).lower()}\n{_json_text(h)}")


@_command("find-chains", "congruence chains between two elements", _LATTICE, _Arg("u"),
          _Arg("v"), _JSON)
def cmd_find_chains(args, L):
    ws = liftings.find_congruence_chains(L, args.u, args.v)
    return _Found(lambda: {"chains": [w.to_json() for w in ws]},
                  lambda: "\n".join(" < ".join(w.elements) for w in ws) or "none")


@_command("export-dot", "Hasse diagram in DOT", _LATTICE, dot=True)
def cmd_export_dot(args, L):
    return _Found(dot=lambda: lattice_dot(L))


def build_parser():
    ap = argparse.ArgumentParser(prog="critlat", description="finite lattice congruence "
                                 "computations and the critical-point gate")
    sub = ap.add_subparsers(dest="command", required=True)
    for add_to in _COMMANDS:
        add_to(sub)
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
