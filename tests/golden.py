"""CLI outputs pinned byte for byte on a fixed corpus.

`con --json`, `si --json` and `simple` on each lattice of the corpus, and
`hs-member`, `var-leq`, `crit-gate` and `conc-report`, with and without
`--json`, on each ordered pair, with their exit codes and error lines.  The
corpus is the named builtins of the test fixtures plus the products N5x2 and
M3^2, written as lattice files.

The lifting side is pinned on a smaller corpus (LIFTING_BUILTINS):
`extract-embedding` and `lift-check --identity`/`--dual-of`, each with and
without `--dual`/`--json`; `chain-diagram` plain, `--json` and `--dot`;
`find-chains` between each lattice's bounds; the M3 and N5 directing
diagrams; `glued-diagram`; and `lift-check` on the identity-lifting bundles of
M3 and N5 (BUNDLES), written as files next to the products.

    PYTHONPATH=src python tests/golden.py

rewrites golden_cli.json from the current code; test_golden.py compares the
current code against that file.  A JSON output is stored parsed, and stands
for the text the CLI prints of it (`expected_stdout`).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from critlat.cli import run
from critlat.diagrams import chain_diagram_of_partial
from critlat.lattice import builtin, product, save_lattice
from critlat.liftings import identity_lifting, lifting_to_json

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
BUILTINS = ("2", "M:3", "M:4", "M:5", "N5", "bool:2", "bool:3", "F22",
            "chain:1", "chain:2", "chain:3", "chain:4", "chain:5")
PRODUCTS = {"N5x2": ("N5", "2"), "M3^2": ("M:3", "M:3")}
LIFTING_BUILTINS = ("2", "chain:3", "M:3", "N5", "F22", "bool:2")
BUNDLES = {"M3-lifting": "M:3", "N5-lifting": "N5"}
TRIPLE = ("0,x1,1", "0,x2,1", "0,x3,1")


def cases():
    """(key, argv) for every pinned call, keyed by its argv; a product or
    bundle is named by its key and stands for its file."""
    names = list(BUILTINS) + list(PRODUCTS)
    argvs = []
    for L in names:
        argvs += [["con", "--json", L], ["si", "--json", L], ["simple", L]]
    for K in names:
        for L in names:
            for command in ("hs-member", "var-leq", "crit-gate", "conc-report"):
                argvs += [[command, "--json", K, L], [command, K, L]]
    for L in LIFTING_BUILTINS:
        for flags in ([], ["--json"], ["--dual"], ["--dual", "--json"]):
            argvs.append(["extract-embedding", *flags, L])
        for flag in ("--identity", "--dual-of"):
            argvs += [["lift-check", flag, L], ["lift-check", "--json", flag, L]]
        for flags in ([], ["--json"], ["--dot"]):
            argvs.append(["chain-diagram", *flags, L])
        bounds = [builtin(L).bottom, builtin(L).top]
        argvs += [["find-chains", L, *bounds], ["find-chains", "--json", L, *bounds]]
    for gen in ("M:3", "N5"):
        for flags in ([], ["--json"], ["--dot"]):
            argvs.append(["directing-diagram", *flags, gen, *TRIPLE])
        argvs.append(["glued-diagram", "M:3", gen])
    for key in BUNDLES:
        argvs += [["lift-check", key], ["lift-check", "--json", key]]
    return [(" ".join(argv), argv) for argv in argvs]


def lattices_of(argv):
    """The lattice names an argv is called on, as one string."""
    return " ".join(a for a in argv[1:] if not a.startswith("--"))


def _stored(stdout):
    try:
        obj = json.loads(stdout)
    except ValueError:
        return stdout
    return obj if expected_stdout(obj) == stdout else stdout


def expected_stdout(stored):
    """The text printed for a stored stdout: itself, or the CLI's rendering
    of a parsed JSON output."""
    if isinstance(stored, str):
        return stored
    return json.dumps(stored, indent=2, sort_keys=True) + "\n"


def outputs(workdir):
    """{key: [exit code, stdout, stderr]} of every case, the products and
    bundles saved under workdir, each stdout as stored (_stored)."""
    files = {}
    for key, factors in PRODUCTS.items():
        files[key] = str(Path(workdir) / f"{key}.json")
        L = product(*map(builtin, factors))
        L.name = key
        save_lattice(L, files[key])
    for key, name in BUNDLES.items():
        L = builtin(name)
        D, _ = chain_diagram_of_partial(L, list(L.labels))
        files[key] = str(Path(workdir) / f"{key}.json")
        Path(files[key]).write_text(json.dumps(lifting_to_json(identity_lifting(D))))
    out = {}
    for key, argv in cases():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([files.get(a, a) for a in argv])
        out[key] = [code, _stored(stdout.getvalue()), stderr.getvalue()]
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        got = outputs(tmp)
    GOLDEN.write_text(json.dumps(got, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{len(got)} outputs written to {GOLDEN}", file=sys.stderr)
