"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Runs each workload for a handful of items, checks that the output carries
exactly the metrics BENCHMARK.json names, that two traced runs count the
same work, that the answer checks reject tampered answers, and that the
benchmark refuses to run without the critlat sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace, items):
    result, info = bench.run(workload, seed=7, seconds=120, trace=trace,
                             max_items=items, blocks=2)
    assert info["failure"] is None
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == items
    return result


@pytest.mark.parametrize("workload", ["decide", "lift", "build"])
def test_end_to_end_metrics(workload):
    metrics = _run(workload, 0, 14)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert metrics["setup_s"]["value"] > 0 and metrics["items_per_s"]["value"] > 0


def test_traced_counts_repeat():
    wanted = [m["name"] for m in SPEC["per_layer"]]
    for workload in ("decide", "build"):
        first = _run(workload, 1, 12)["metrics"]
        second = _run(workload, 1, 12)["metrics"]
        assert list(first) == wanted
        counts = {k for k in wanted if not k.endswith(".self_s")}
        assert {k: first[k]["value"] for k in counts} == \
            {k: second[k]["value"] for k in counts}
    assert first["congruence.con_lattice.calls"]["value"] == 0
    assert first["lattice.validate_lattice.calls"]["value"] > 0


def test_checks_reject_wrong_answers():
    bench._import_critlat()
    import critlat as cl
    import oracle
    import workloads

    M3, N5 = cl.builtin("M:3"), cl.builtin("N5")
    item = workloads._decide_item("random", M3, cl.builtin("M:4"), "Infinite")
    verdict = item.run()
    item.check(verdict)
    with pytest.raises(oracle.WrongAnswer):
        workloads._decide_item("random", M3, cl.builtin("M:4"), "AtMostAleph2").check(verdict)
    # a witness whose theta merges two blocks is no longer a congruence image of M
    w = verdict.cert_plain.witnesses[0]
    bad = type(w)(w.sublattice, w.inclusion, cl.Congruence.one(w.sublattice), w.iso)
    ref = oracle.lattice_order(cl.builtin("M:4"))
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_hs_witness(ref, bad, oracle.lattice_order(M3))
    # an order-reversing bijection of N5 is not an isomorphism of N5
    n5 = oracle.lattice_order(N5)
    flip = dict(zip(N5.labels, reversed(N5.labels)))
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_order_iso(n5, n5, flip)


def test_refusal_is_counted_by_layer():
    bench._import_critlat()
    import critlat as cl
    import spans
    import workloads

    recorder = spans.Recorder()
    recorder.install()
    try:
        recorder.item = 1
        with pytest.raises(spans.REFUSALS) as exc:
            workloads._glued_item(cl.builtin("M:3"), cl.builtin("M:3")).run()
        recorder.item = None
    finally:
        recorder.uninstall()
    assert spans.refusal_layer(exc.value) == "diagrams"
    assert recorder.metrics({"diagrams": 1})["diagrams.refused"]["value"] == 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
