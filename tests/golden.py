"""CLI outputs pinned byte for byte on a fixed corpus.

`con --json`, `si --json`, `simple`, `dual`, `export-dot` and `validate`
(with and without `--json`) on each lattice of the corpus, and `hs-member`,
`var-leq`, `crit-gate`, `conc-report` and `iso`, with and without `--json`,
on each ordered pair, with their exit codes and error lines.  The
corpus is the named builtins of the test fixtures plus the products N5x2 and
M3^2 and the lattice L6 with its dual L6d, written as lattice files.  Var L6
is not self-dual, so its pairs pin crit-gate's dual branch.

The lifting side is pinned on a smaller corpus (LIFTING_BUILTINS):
`extract-embedding` and `lift-check --identity`/`--dual-of`, each with and
without `--dual`/`--json`; `chain-diagram` plain, `--json` and `--dot`;
`find-chains` between each lattice's bounds; the M3 and N5 directing
diagrams; `glued-diagram`; and `lift-check` on the identity-lifting bundles of
M3 and N5 (BUNDLES), written as files next to the products.

The bundle writer is pinned by its text (bundle_texts): lifting_to_json of
the identity and dual liftings of the chain diagram of each of
LIFTING_BUILTINS, and of the identity liftings of the M3 and N5 directing
diagrams over TRIPLE.

    PYTHONPATH=src python tests/golden.py

rewrites golden_cli.json from the current code; test_golden.py compares the
current code against that file.  A bundle text is stored under its
bundle_texts key, as a string.  A JSON output is stored parsed, and stands
for the text the CLI prints of it (`expected_stdout`).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from critlat.cli import run
from critlat.diagrams import chain_diagram_of_partial, directing_diagram
from critlat.lattice import builtin, dual, product, save_lattice, validate_lattice
from critlat.liftings import dual_lifting, identity_lifting, lifting_to_json

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
BUILTINS = ("2", "M:3", "M:4", "M:5", "N5", "bool:2", "bool:3", "F22",
            "chain:1", "chain:2", "chain:3", "chain:4", "chain:5")
PRODUCTS = {"N5x2": ("N5", "2"), "M3^2": ("M:3", "M:3")}
# 0 < a, b, c; a, b < ab < 1; c < 1
L6 = (("0", "a", "b", "c", "ab", "1"),
      (("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("b", "ab"), ("ab", "1"), ("c", "1")))
LIFTING_BUILTINS = ("2", "chain:3", "M:3", "N5", "F22", "bool:2")
BUNDLES = {"M3-lifting": "M:3", "N5-lifting": "N5"}
TRIPLE = ("0,x1,1", "0,x2,1", "0,x3,1")


def cases():
    """(key, argv) for every pinned call, keyed by its argv; a file lattice
    (file_lattices) or bundle is named by its key and stands for its file."""
    names = list(BUILTINS) + list(PRODUCTS) + ["L6", "L6d"]
    argvs = []
    for L in names:
        argvs += [["con", "--json", L], ["si", "--json", L], ["simple", L], ["dual", L],
                  ["export-dot", L], ["validate", L], ["validate", "--json", L]]
    for K in names:
        for L in names:
            for command in ("hs-member", "var-leq", "crit-gate", "conc-report", "iso"):
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


def bundle_texts():
    """{key: text} of each pinned lifting bundle: "lifting_to_json <flag>
    <lattice>", the flag --identity or --dual-of for the chain diagram over
    all of the lattice's elements and --directing for the directing diagram
    over TRIPLE; the text is json.dumps of the bundle, its keys in the order
    lifting_to_json writes them."""
    lifts = {}
    for name in LIFTING_BUILTINS:
        L = builtin(name)
        lift = identity_lifting(chain_diagram_of_partial(L, list(L.labels))[0])
        lifts[f"--identity {name}"] = lift
        lifts[f"--dual-of {name}"] = dual_lifting(lift)
    for gen in ("M:3", "N5"):
        chains = [tuple(c.split(",")) for c in TRIPLE]
        lifts[f"--directing {gen}"] = identity_lifting(directing_diagram(builtin(gen), *chains))
    return {f"lifting_to_json {key}": json.dumps(lifting_to_json(lift))
            for key, lift in lifts.items()}


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


def file_lattices():
    """{key: lattice} of the corpus lattices written as files: the products,
    each named by its key, L6 and its dual L6d."""
    out = {}
    for key, factors in PRODUCTS.items():
        P = product(*map(builtin, factors))
        out[key] = validate_lattice(P.labels, [(P.labels[i], P.labels[j]) for i, j in P.covers],
                                    name=key)
    out["L6"] = validate_lattice(*L6, name="L6")
    out["L6d"] = dual(out["L6"])
    return out


def outputs(workdir, texts):
    """{key: [exit code, stdout, stderr]} of every case, the file lattices
    and bundles saved under workdir, each stdout as stored (_stored); texts
    is bundle_texts()."""
    files = {}
    for key, L in file_lattices().items():
        files[key] = str(Path(workdir) / f"{key}.json")
        save_lattice(L, files[key])
    for key, name in BUNDLES.items():
        files[key] = str(Path(workdir) / f"{key}.json")
        Path(files[key]).write_text(texts[f"lifting_to_json --identity {name}"])
    out = {}
    for key, argv in cases():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([files.get(a, a) for a in argv])
        out[key] = [code, _stored(stdout.getvalue()), stderr.getvalue()]
    return out


if __name__ == "__main__":
    import tempfile

    texts = bundle_texts()
    with tempfile.TemporaryDirectory() as tmp:
        got = {**outputs(tmp, texts), **texts}
    GOLDEN.write_text(json.dumps(got, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{len(got)} outputs written to {GOLDEN}", file=sys.stderr)
