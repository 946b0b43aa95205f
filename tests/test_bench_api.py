"""The critlat names the traced benchmark reads stay in place.

bench/spans.py wraps every function in its LAYERS table and bench/oracle.py
reads FiniteLattice.covers, meet_row and join_row; deleting any of them would
break the benchmark without failing a library test.
"""

import importlib
import importlib.util
from pathlib import Path

from critlat.lattice import builtin

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_resolves():
    for layer, funcs in _spans().LAYERS.items():
        home = importlib.import_module(f"critlat.{layer}")
        for name in funcs:
            assert callable(getattr(home, name, None)), f"critlat.{layer}.{name}"


def test_oracle_reads_of_finite_lattice():
    L = builtin("N5")
    assert len(L.covers) == 5
    for i in range(L.n):
        assert list(L.meet_row(i)) == [L.meet_i(i, j) for j in range(L.n)]
        assert list(L.join_row(i)) == [L.join_i(i, j) for j in range(L.n)]
