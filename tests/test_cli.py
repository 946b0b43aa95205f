import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from critlat.cli import build_parser, run
from critlat.diagrams import chain_diagram_of_partial
from critlat.lattice import builtin, lattice_to_json, save_lattice, validate_lattice
from critlat.liftings import identity_lifting, lifting_to_json


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def identity_bundle(name):
    """The lifting_to_json bundle of the identity lifting of the chain
    diagram of the builtin lattice name, over all of its elements."""
    L = builtin(name)
    return lifting_to_json(identity_lifting(chain_diagram_of_partial(L, L.labels)[0]))


class TestBasics:
    def test_con_m3(self, capsys):
        code, out, _ = invoke(capsys, "con", "M:3")
        assert code == 0
        assert out.splitlines()[0] == "simple: true, |Con| = 2"

    def test_validate_builtin(self, capsys):
        code, out, _ = invoke(capsys, "validate", "N5")
        assert code == 0 and "|L| = 5" in out

    def test_validate_broken_file(self, tmp_path, capsys):
        p = tmp_path / "broken.lat"
        p.write_text(json.dumps({
            "name": "broken",
            "elements": ["0", "a", "b", "1"],
            "covers": [["0", "a"], ["0", "b"]],
        }))
        code, _, err = invoke(capsys, "validate", str(p))
        assert code == 2 and "NotALattice" in err

    def test_unknown_input(self, capsys):
        # N6 is no builtin name, so it is read as a (missing) file
        for spec in ("no-such-thing", "N6"):
            code, _, err = invoke(capsys, "validate", spec)
            assert code == 2
            assert err == f"error: CritlatError: no such file or builtin lattice: {spec!r}\n"

    @pytest.mark.parametrize("name", ["M:x", "bool:1.5", "chain:", "chain:-3", "chain:0",
                                      "M:2", "bool:0"])
    def test_malformed_builtin_is_two(self, capsys, name):
        code, _, err = invoke(capsys, "validate", name)
        assert code == 2 and "FormatError" in err

    def test_con_keeps_its_own_budget(self, capsys):
        code, out, _ = invoke(capsys, "con", "bool:4")
        assert code == 0
        assert out.splitlines()[0] == "simple: false, |Con| = 16"

    def test_simple(self, capsys):
        assert invoke(capsys, "simple", "M:4")[1].strip() == "true"
        assert invoke(capsys, "simple", "N5")[1].strip() == "false"


class TestCritGateExitCodes:
    def test_infinite_is_zero(self, capsys):
        code, out, _ = invoke(capsys, "crit-gate", "M:3", "M:4")
        assert code == 0 and "infinite" in out

    def test_aleph2_is_three(self, capsys):
        code, out, _ = invoke(capsys, "crit-gate", "M:4", "M:3", "--json")
        assert code == 3
        blob = json.loads(out)
        assert blob["verdict"] == "AtMostAleph2" and blob["schema"] == 1

    def test_error_is_two(self, capsys):
        code, _, err = invoke(capsys, "crit-gate", "M:4", "missing.lat")
        assert code == 2


class TestModuleEntry:
    """`python -m critlat` and `python -m critlat.cli` run the command line
    without an installed `critlat` script."""

    @staticmethod
    def _module(*argv):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        return subprocess.run([sys.executable, "-m", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_package_exit_code_is_the_verdict(self):
        done = self._module("critlat", "crit-gate", "M:4", "M:3")
        assert done.returncode == 3, done.stderr

    def test_cli_module_prints_what_run_prints(self, capsys):
        done = self._module("critlat.cli", "crit-gate", "M:3", "M:4")
        code, out, _ = invoke(capsys, "crit-gate", "M:3", "M:4")
        assert done.returncode == code == 0 and done.stdout == out != ""

    def test_package_refuses_bad_input_with_two(self):
        done = self._module("critlat", "validate", "chain:0")
        assert done.returncode == 2 and "Traceback" not in done.stderr


class TestJsonModes:
    @pytest.mark.parametrize("argv", [
        ("con", "N5", "--json"),
        ("si", "N5", "--json"),
        ("hs-member", "M:3", "M:4", "--json"),
        ("var-leq", "chain:3", "chain:2", "--json"),
        ("conc-report", "chain:2", "chain:3", "--json"),
        ("iso", "M:3", "M:3", "--json"),
        ("dual", "N5"),
        ("chain-diagram", "M:3", "--json"),
        ("extract-embedding", "M:3", "--json"),
        ("find-chains", "bool:2", "00", "11", "--json"),
    ])
    def test_emits_json(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        json.loads(out)

    def test_round_trip_lattice_file(self, tmp_path, capsys):
        p = tmp_path / "n5.lat"
        save_lattice(builtin("N5"), p)
        code, out, _ = invoke(capsys, "validate", str(p), "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["elements"] == list(builtin("N5").labels)
        assert blob["covers"] == lattice_to_json(builtin("N5"))["covers"]


class TestOperations:
    def test_find_chains_human(self, capsys):
        code, out, _ = invoke(capsys, "find-chains", "bool:2", "00", "11")
        assert code == 0
        assert out.splitlines() == ["00 < 01 < 11", "00 < 10 < 11"]

    def test_iso_none(self, capsys):
        code, out, _ = invoke(capsys, "iso", "M:3", "N5")
        assert code == 0 and out.strip() == "none"

    def test_var_leq_false(self, capsys):
        code, out, _ = invoke(capsys, "var-leq", "M:4", "M:3")
        assert code == 0 and out.strip() == "false"

    def test_export_dot_deterministic(self, capsys):
        _, a, _ = invoke(capsys, "export-dot", "F22")
        _, b, _ = invoke(capsys, "export-dot", "F22")
        assert a == b and a.startswith("digraph")

    def test_export_dot_escapes_name_and_labels(self, tmp_path, capsys):
        p = tmp_path / "quoted.json"
        p.write_text(json.dumps({"name": 'a"b\\c', "elements": ["0", 'x"y', "1"],
                                 "covers": [["0", 'x"y'], ['x"y', "1"]]}))
        code, out, _ = invoke(capsys, "export-dot", str(p))
        assert code == 0
        assert out.startswith('digraph "a\\"b\\\\c" {')
        assert '  n1 [label="x\\"y"];' in out.splitlines()

    def test_chain_diagram_dot(self, capsys):
        code, out, _ = invoke(capsys, "chain-diagram", "M:3", "--dot")
        assert code == 0 and out.count("subgraph cluster_") == 8

    def test_directing_diagram(self, capsys):
        code, out, _ = invoke(capsys, "directing-diagram", "M:3",
                              "0,x1,1", "0,x2,1", "0,x3,1")
        assert code == 0 and '"T": 5' in out

    def test_glued_diagram_summary(self, capsys):
        code, out, _ = invoke(capsys, "glued-diagram", "M:3", "M:3")
        assert code == 0
        assert "factors: 7" in out and '"T": 78125' in out

    def test_lift_check_identity_and_dual(self, capsys):
        code, out, _ = invoke(capsys, "lift-check", "--identity", "M:3")
        assert code == 0 and out.strip() == "valid"
        code, out, _ = invoke(capsys, "lift-check", "--dual-of", "M:3")
        assert code == 0 and out.strip() == "valid"

    def test_lift_check_bundle_file(self, tmp_path, capsys):
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(identity_bundle("N5")))
        code, out, _ = invoke(capsys, "lift-check", str(p))
        assert code == 0 and out.strip() == "valid"

    def test_lift_check_failing_bundle_is_one(self, tmp_path, capsys):
        # a well-formed bundle whose xi at the top swaps two congruences
        bundle = identity_bundle("N5")
        xi = bundle["xi"]["T"]
        xi[1][1], xi[2][1] = xi[2][1], xi[1][1]
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(bundle))
        code, out, _ = invoke(capsys, "lift-check", str(p))
        assert code == 1 and out.strip() == "invalid: ('xi-not-iso', 'T')"

    def test_extract_embedding_dual_flag(self, capsys):
        code, out, _ = invoke(capsys, "extract-embedding", "M:3", "--dual")
        assert code == 0 and "dualized: true" in out

    def test_threads_flag_refused(self, capsys):
        code, out, err = invoke(capsys, "--threads", "4", "con", "M:3")
        assert code == 2 and out == "" and "Traceback" not in err

    def test_hs_member_absent(self, capsys):
        code, out, _ = invoke(capsys, "hs-member", "M:3", "N5")
        assert code == 0 and out.strip() == "absent"


class TestBudgetFlags:
    def test_max_subuniverses_aborts(self, capsys):
        code, _, err = invoke(capsys, "hs-member", "M:3", "N5",
                              "--max-subuniverses", "3")
        assert code == 2 and "BudgetExceeded" in err

    def test_hs_budget_counts_tuples_not_elements(self, capsys):
        # bool:6 has 64 elements; three generator tuples decide it
        code, out, _ = invoke(capsys, "var-leq", "bool:3", "bool:6")
        assert code == 0 and out.strip() == "true"

    def test_hs_search_in_a_long_chain_answers(self, capsys):
        # chain:300 has 301 elements; ruling M3 out closes about 90 000 tuples
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "hs-member", "M:3", "chain:300")
        assert time.perf_counter() - start < 1
        assert code == 0 and out.strip() == "absent"

    def test_hs_refusal_names_the_search_and_its_work(self, capsys):
        code, _, err = invoke(capsys, "hs-member", "bool:3", "chain:300",
                              "--max-subuniverses", "10000")
        assert code == 2
        assert err.splitlines()[-1] == (
            "error: BudgetExceeded: HS search for <Lattice bool:3> in "
            "<Lattice chain:300> stopped after 10000 generator tuples (budget 10000)")

    def test_law_check_answers_before_the_budget(self, capsys):
        # bool:8 is distributive and N5 is not: absent without a search
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "hs-member", "N5", "bool:8")
        assert time.perf_counter() - start < 1
        assert code == 0 and out.strip() == "absent"

    def test_hs_budget_counts_the_generating_set_search(self, capsys):
        # bool:8 needs 5 generators, found only after C(256, 4) closures in M
        start = time.perf_counter()
        code, _, err = invoke(capsys, "hs-member", "bool:8", "bool:8",
                              "--max-subuniverses", "10000")
        assert time.perf_counter() - start < 5
        assert code == 2 and "<Lattice bool:8> in <Lattice bool:8> stopped after 10000" in err

    def test_con_count_budget_refuses_long_chain(self, capsys):
        # Con(chain:40) has 2^40 members; the count budget stops it early
        start = time.perf_counter()
        code, _, err = invoke(capsys, "con", "chain:40")
        assert time.perf_counter() - start < 5
        assert code == 2 and "BudgetExceeded" in err
        assert "|J(Con L)| = 40" in err

    @pytest.mark.parametrize("argv, first", [
        ("con chain:12", "simple: false, |Con| = 4096"),
        ("con M:299", "simple: true, |Con| = 2"),
        ("con bool:9", "simple: false, |Con| = 512"),
        ("find-chains M:299 0 1", "0 < 1"),
        ("si chain:299", "1 subdirectly irreducible quotient(s)"),
    ])
    def test_cell_budgets_answer(self, capsys, argv, first):
        code, out, _ = invoke(capsys, *argv.split())
        assert code == 0 and out.splitlines()[0] == first

    def test_j_budget_edge(self, capsys):
        # 300 * 301 cells are past J_CELL_BUDGET = 300 * 300
        code, _, err = invoke(capsys, "si", "chain:300")
        assert code == 2
        assert err.splitlines()[-1] == ("error: BudgetExceeded: |J(L)| * |L| = 300 * 301 "
                                        "exceeds the J(Con L) budget 90000")

    @pytest.mark.parametrize("argv", [
        "con chain:1200", "si chain:1200", "find-chains chain:1200 0 1",
        "extract-embedding chain:3000 --subset 0,c1,1"])
    def test_j_budget_refuses_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = invoke(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert code == 2 and "J(Con L) budget" in err

    def test_chain_12_bundle_replays(self, tmp_path, capsys):
        p = tmp_path / "chain12.json"
        p.write_text(json.dumps(identity_bundle("chain:12")))
        assert invoke(capsys, "lift-check", str(p)) == (0, "valid\n", "")

    def test_env_product_cap(self, capsys):
        # there is no --cap: products above PRODUCT_CAP elements are lazy
        code, _, err = invoke(capsys, "glued-diagram", "M:3", "M:3", "--cap", "100000")
        assert code == 2 and "Traceback" not in err
        code, out, err = invoke(capsys, "glued-diagram", "M:3", "M:3")
        assert code == 0 and "factors: 7" in out and err == ""


class TestLongChains:
    """Long chains build in about a second; every command on them ends with
    a documented exit code, without RecursionError."""

    @pytest.mark.parametrize("argv", [
        "validate chain:1500", "dual chain:1500", "iso chain:1100 chain:1100",
        "export-dot chain:1200", "con chain:1200", "si chain:1200",
        "chain-diagram chain:1200 --subset 0,1"])
    def test_exit_code_within_seconds(self, capsys, argv):
        start = time.perf_counter()
        code, _, _ = invoke(capsys, *argv.split())
        assert code in (0, 2, 3)
        assert time.perf_counter() - start < 10


# every subcommand with the lazy product bool:13 (8192 elements, past
# PRODUCT_CAP) in each lattice position, and its exit code: the order, the
# dual and the drawing are answered, a member or an isomorph larger than
# the other lattice is absent, and everything else is refused
LAZY = "bool:13"
LAZY_COMMANDS = {
    "validate {}": 0, "con {}": 2, "simple {}": 2, "si {}": 2, "hs-member {} M:3": 0,
    "hs-member M:3 {}": 2, "hs-member {} {}": 2, "var-leq {} M:3": 2, "var-leq M:3 {}": 2,
    "crit-gate {} M:3": 2, "crit-gate M:3 {}": 2, "conc-report {} M:3": 2,
    "conc-report M:3 {}": 2, "iso {} M:3": 0, "iso M:3 {}": 0, "iso {} {}": 2, "dual {}": 0,
    "chain-diagram {}": 2, "directing-diagram {} 0,x1,1 0,x2,1 0,x3,1": 2,
    "glued-diagram {} M:3": 2, "glued-diagram M:3 {}": 2, "lift-check --identity {}": 2,
    "lift-check --dual-of {}": 2, "extract-embedding {}": 2,
    "find-chains {} 0000000000000 1111111111111": 2, "export-dot {}": 0}


class TestLazyProducts:
    """A builtin past PRODUCT_CAP is a lazy product: every command on it
    answers or refuses within seconds, with no traceback."""

    def test_every_subcommand_is_swept(self):
        _, subs = TestFlagTable.subparsers()
        assert {c.split()[0] for c in LAZY_COMMANDS} == set(subs)

    @pytest.mark.parametrize("command", sorted(LAZY_COMMANDS))
    def test_exit_code_within_seconds(self, capsys, command):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *command.format(LAZY, LAZY).split())
        assert time.perf_counter() - start < 10
        assert code == LAZY_COMMANDS[command] and "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and out == ""
        elif command.startswith(("hs-member", "iso")):
            assert out == ("absent\n" if command.startswith("hs-member") else "none\n")

    def test_past_the_lazy_limit_is_two(self, capsys):
        code, _, err = invoke(capsys, "validate", "bool:19")
        assert code == 2
        assert err == "error: SizeCapExceeded: product of size 524288 exceeds the lazy limit\n"


# every subcommand that reads a file, with {} where the file goes
FILE_COMMANDS = [
    "validate {}", "con {}", "simple {}", "si {}", "hs-member {} M:3",
    "hs-member M:3 {}", "var-leq {} M:3", "var-leq M:3 {}", "crit-gate {} M:3",
    "crit-gate M:3 {}", "conc-report {} M:3", "conc-report M:3 {}", "iso {} M:3",
    "iso M:3 {}", "dual {}", "chain-diagram {}",
    "directing-diagram {} 0,x1,1 0,x2,1 0,x3,1", "glued-diagram {} M:3",
    "glued-diagram M:3 {}", "lift-check {}", "extract-embedding {}",
    "find-chains {} 0 1", "export-dot {}"]
MALFORMED = {
    "truncated": '{"elements": ["0", "1"], "cov',
    "list": "[1, 2]",
    "wrong-shape": '{"labels": ["a"], "covers": "x"}',
    "cover-not-a-pair": '{"elements": ["a"], "covers": "x"}',
    "elements-not-a-list": '{"elements": 5, "covers": []}',
    # shapes that read as the lattice a < b when iterated loosely
    "elements-a-string": '{"elements": "ab", "covers": [["a", "b"]]}',
    "elements-an-object": '{"elements": {"a": 1, "b": 2}, "covers": [["a", "b"]]}',
    "cover-a-string": '{"elements": ["a", "b"], "covers": ["ab"]}',
    "elements-not-strings": '{"elements": [0, 1], "covers": [[0, 1]]}',
    "name-not-a-string": '{"name": ["x"], "elements": ["a"], "covers": []}',
    "not-utf-8": b"\xff\xfe",
}
# every subcommand on builtins
BUILTIN_COMMANDS = [
    "validate N5", "con N5", "simple N5", "si N5", "hs-member M:3 N5",
    "var-leq N5 M:3", "crit-gate N5 M:3", "conc-report M:3 N5", "iso N5 N5",
    "dual N5", "chain-diagram N5", "directing-diagram M:3 0,x1,1 0,x2,1 0,x3,1",
    "glued-diagram M:3 M:3", "lift-check --identity N5", "extract-embedding N5",
    "find-chains bool:2 00 11", "export-dot N5"]


# the options each subcommand accepts
HS_FLAGS = {"--json", "--max-subuniverses"}
FLAGS = {
    "validate": {"--json"}, "con": {"--json"}, "simple": set(), "si": {"--json"},
    "hs-member": HS_FLAGS, "var-leq": HS_FLAGS, "crit-gate": HS_FLAGS,
    "conc-report": HS_FLAGS, "iso": {"--json"}, "dual": set(),
    "chain-diagram": {"--subset", "--dot", "--json"},
    "directing-diagram": {"--dot", "--json"}, "glued-diagram": {"--subset"},
    "lift-check": {"--identity", "--dual-of", "--json"},
    "extract-embedding": {"--subset", "--dual", "--json"}, "find-chains": {"--json"},
    "export-dot": set()}


class ReadRecorder(argparse.Namespace):
    """A namespace that notes the name of every attribute read."""

    def __getattribute__(self, name):
        object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


class TestFlagTable:
    @staticmethod
    def subparsers():
        ap = build_parser()
        action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        return ap, action.choices

    @staticmethod
    def options(p):
        """The optional arguments of a parser, --help aside."""
        return [a for a in p._actions if a.option_strings and a.dest != "help"]

    def test_each_subcommand_accepts_its_flags(self):
        ap, subs = self.subparsers()
        assert self.options(ap) == []
        assert {c.split()[0] for c in BUILTIN_COMMANDS} == set(subs)
        assert {name: {o for a in self.options(p) for o in a.option_strings}
                for name, p in subs.items()} == FLAGS

    @pytest.mark.parametrize("command", BUILTIN_COMMANDS)
    def test_each_flag_is_read(self, capsys, command):
        ap, subs = self.subparsers()
        args = ap.parse_args(command.split(), namespace=ReadRecorder())
        vars(args)["_read"] = set()
        args.func(args)
        capsys.readouterr()
        dests = {a.dest for a in self.options(subs[command.split()[0]])}
        assert dests <= vars(args)["_read"]


class TestInputContract:
    """Every input ends with a documented exit code and no traceback."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_malformed_file_is_two(self, tmp_path, capsys, command, kind):
        p = tmp_path / "input.json"
        text = MALFORMED[kind]
        if isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text)
        code, _, err = invoke(capsys, *command.format(p).split())
        assert code == 2 and "FormatError" in err
        assert "Traceback" not in err

    def test_directory_is_two(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "lift-check", str(tmp_path))
        assert code == 2 and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["not-transitive", "cycle", "repeated-node",
                                      "unknown-node"])
    def test_bundle_whose_order_is_no_partial_order_is_two(self, tmp_path, capsys, kind):
        # an identity lifting with both posets' order broken the same way:
        # the M:3 chain diagram, or for the cycle a <= b <= a the diagram of
        # two copies of 2 joined by identities, which is transitive
        from critlat.diagrams import FinitePoset, LatticeDiagram
        from critlat.lattice import Homomorphism
        if kind == "cycle":
            two = builtin("2")
            ident = Homomorphism.identity(two)
            D = LatticeDiagram(FinitePoset(["a", "b"], [("a", "b")]), {"a": two, "b": two},
                               {("a", "a"): ident, ("b", "b"): ident, ("a", "b"): ident})
        else:
            M3 = builtin("M:3")
            D, _ = chain_diagram_of_partial(M3, M3.labels)
        bundle = lifting_to_json(identity_lifting(D))
        for side in (bundle["source"], bundle["target"]):
            poset = side["poset"]
            if kind == "not-transitive":
                # {} <= {0<x1<1} <= T stays, {} <= T goes
                poset["leq"].remove(["{}", "T"])
                del side["maps"]["{}<=T"]
            elif kind == "cycle":
                poset["leq"].append(["b", "a"])
                side["maps"]["b<=a"] = {"0": "0", "1": "1"}
            elif kind == "repeated-node":
                poset["nodes"].append("{}")
            else:
                poset["leq"].append(["{}", "zz"])
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(bundle))
        code, _, err = invoke(capsys, "lift-check", str(p))
        assert code == 2 and "FormatError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, error", [
        ("extra-lattice", "the lattices are not keyed by exactly the poset's nodes"),
        ("map-off-the-order", "the map key '{0<x1<1}<={0<x3<1}' names no order pair p < q"),
        ("map-of-no-element", "the map '{}<=T' does not map exactly the elements of {}"),
    ])
    def test_bundle_with_a_key_it_does_not_read_is_two(self, tmp_path, capsys, kind, error):
        # N5's identity bundle with, on both sides, a lattice keyed by no
        # node, a map between two nodes that are not ordered, or a map entry
        # keyed by a label that is not an element of the map's source
        bundle = identity_bundle("N5")
        for side in (bundle["source"], bundle["target"]):
            if kind == "extra-lattice":
                side["lattices"]["zz"] = side["lattices"]["{}"]
            elif kind == "map-off-the-order":
                side["maps"]["{0<x1<1}<={0<x3<1}"] = {"0": "0", "x1": "x3", "1": "1"}
            else:
                side["maps"]["{}<=T"]["zz"] = "0"
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(bundle))
        code, _, err = invoke(capsys, "lift-check", str(p))
        assert code == 2
        assert err == f"error: FormatError: {error}\n"

    @pytest.mark.parametrize("elements, covers", [
        # the chains 0 < a < b < 1 and 0 < a<b < 1 once shared the id {0<a<b<1}
        (["0", "a", "b", "a<b", "1"],
         [("0", "a"), ("a", "b"), ("b", "1"), ("0", "a<b"), ("a<b", "1")]),
        # the id {0<a<=b<1} once made a map key split in three
        (["0", "a<=b", "1"], [("0", "a<=b"), ("a<=b", "1")]),
    ], ids=["shared-id", "split-key"])
    def test_labels_with_id_syntax_keep_node_ids_distinct(self, tmp_path, capsys,
                                                          elements, covers):
        L = validate_lattice(elements, covers)
        D, _ = chain_diagram_of_partial(L, L.labels)
        assert len({str(n) for n in D.poset.elements}) == len(D.poset.elements)
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(lifting_to_json(identity_lifting(D))))
        assert invoke(capsys, "lift-check", str(p)) == (0, "valid\n", "")

    @pytest.mark.parametrize("kind", ["missing", "repeated", "two-entries"])
    def test_bundle_whose_xi_does_not_list_each_congruence_once_is_two(
            self, tmp_path, capsys, kind):
        # N5's identity lifting with xi at the top node cut short or padded:
        # an unlisted congruence must not be read as sent to the zero one
        bundle = identity_bundle("N5")
        entries = bundle["xi"]["T"]
        if kind == "missing":
            del entries[0]
        elif kind == "repeated":
            entries.append(entries[0])
        else:
            del entries[2:]
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(bundle))
        code, _, err = invoke(capsys, "lift-check", str(p))
        assert code == 2
        assert err == ("error: FormatError: bad lifting bundle: xi at T does not "
                       "list each congruence of its source exactly once\n")

    @pytest.mark.parametrize("kind, error", [
        ("schema-99", '"schema" must be 1'),
        ("no-schema", '"schema" must be 1'),
        ("schema-true", '"schema" must be 1'),
        ("schema-float", '"schema" must be 1'),
        ("unknown-xi-key", "xi key 'nonsense' names no node"),
    ])
    def test_bundle_with_bad_schema_or_xi_key_is_two(self, tmp_path, capsys, kind, error):
        # N5's identity bundle with its "schema" changed or dropped, or with
        # an xi list keyed by a node the source poset does not list
        bundle = identity_bundle("N5")
        if kind == "unknown-xi-key":
            bundle["xi"]["zz"] = bundle["xi"]["nonsense"] = [[1, 2]]
        elif kind == "no-schema":
            del bundle["schema"]
        else:
            bundle["schema"] = {"schema-99": 99, "schema-true": True, "schema-float": 1.0}[kind]
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(bundle))
        code, _, err = invoke(capsys, "lift-check", str(p))
        assert code == 2
        assert err == f"error: FormatError: bad lifting bundle: {error}\n"

    def test_lift_check_without_input_is_two(self, capsys):
        code, _, err = invoke(capsys, "lift-check")
        assert code == 2 and "--identity or --dual-of" in err

    @pytest.mark.parametrize("argv", ["{} --identity M:3", "--identity M:3 --dual-of N5"])
    def test_lift_check_with_two_inputs_is_two(self, tmp_path, capsys, argv):
        # a bundle, --identity and --dual-of exclude one another: naming two
        # is a usage error, not a check of one of them
        p = tmp_path / "bundle.json"
        p.write_text(json.dumps(identity_bundle("N5")))
        code, out, err = invoke(capsys, "lift-check", *argv.format(p).split())
        assert code == 2 and out == "" and "not allowed with argument" in err

    @pytest.mark.parametrize("argv, error", [
        ("chain-diagram M:3 --subset 0,zz,1", "UnknownElement"),
        ("extract-embedding M:3 --subset 0,zz,1", "UnknownElement"),
        ("glued-diagram M:3 M:3 --subset 0,a,b,c,1", "UnknownElement"),
        ("glued-diagram M:3 M:3 --subset 0,x1,x2,x2,1", "TooFewElements"),
    ])
    def test_malformed_subset_is_two(self, capsys, argv, error):
        code, _, err = invoke(capsys, *argv.split())
        assert code == 2 and error in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [c for c in BUILTIN_COMMANDS
                                         if "--max-subuniverses" in FLAGS[c.split()[0]]])
    def test_budget_flags_at_zero_and_below(self, capsys, command, value):
        code, _, err = invoke(capsys, *command.split(), "--max-subuniverses", value)
        assert code in (0, 2, 3) and "Traceback" not in err
