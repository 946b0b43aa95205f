"""CLI outputs pinned byte for byte on a fixed corpus.

`con --json`, `si --json` and `simple` on each lattice of the corpus, and
`hs-member`, `var-leq`, `crit-gate` and `conc-report`, with and without
`--json`, on each ordered pair, with their exit codes and error lines.  The corpus is the named builtins of the test
fixtures plus the products N5x2 and M3^2, written as lattice files.

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
from critlat.lattice import builtin, product, save_lattice

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
BUILTINS = ("2", "M:3", "M:4", "M:5", "N5", "bool:2", "bool:3", "F22",
            "chain:1", "chain:2", "chain:3", "chain:4", "chain:5")
PRODUCTS = {"N5x2": ("N5", "2"), "M3^2": ("M:3", "M:3")}


def cases():
    """(key, argv) for every pinned call, keyed by its argv; a product is
    named by its key and stands for its lattice file."""
    names = list(BUILTINS) + list(PRODUCTS)
    argvs = []
    for L in names:
        argvs += [["con", "--json", L], ["si", "--json", L], ["simple", L]]
    for K in names:
        for L in names:
            for command in ("hs-member", "var-leq", "crit-gate", "conc-report"):
                argvs += [[command, "--json", K, L], [command, K, L]]
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
    """{key: [exit code, stdout, stderr]} of every case, the products saved
    under workdir, each stdout as stored (_stored)."""
    files = {}
    for key, factors in PRODUCTS.items():
        files[key] = str(Path(workdir) / f"{key}.json")
        L = product(*map(builtin, factors))
        L.name = key
        save_lattice(L, files[key])
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
