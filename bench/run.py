"""critlat benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload decide|lift|build --seed N --seconds S --trace 0|1

Run from the repository root; critlat is imported from ./src.  The run sets
up its inputs from the seed, then one caller runs one item at a time until
S seconds have passed, checking every answer.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, items per
second, median and 90th-percentile latency, refused share, peak RSS).  With
--trace 1 every public function of every layer is wrapped and the metrics are
per-layer call counts, self times and work counts; the spans are written to
bench/out/spans-<workload>.jsonl.  The line before the result ("info ...")
carries the raw wall-clock figures and per-kind latencies.  A wrong answer or
an unexpected exception ends the run with exit code 1; missing critlat
sources, with exit code 2.

Times are reported in reference-host units.  The speed of a shared host
drifts by up to a factor of two over minutes, far more than the changes the
benchmark must resolve.  So after every item the run times a fixed piece of
reference work (reference_work) and divides each item's raw time by the
local slowdown: the median reference time around that item over REF_S, the
median on the host the benchmark was defined on (2 vCPUs, Python 3.11,
quiet).  Set-up time is scaled by the reference times taken during set-up.
A change to critlat moves the scaled figures as it moves the raw ones; a
slower host slows the reference work too and largely cancels out.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# one thread per process, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 3                 # set-ups per run; setup_s is their median
POOL_BLOCKS = {"decide": 30, "lift": 20, "build": 20}   # blocks set up per pool
REF_S = 0.0015                    # reference_work on the reference host, seconds

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("p50_ms", "ms"),
              ("p90_ms", "ms"), ("refused_frac", "ratio"), ("peak_rss_mb", "MB"))


def reference_work():
    """Fixed work mixing the two kinds critlat does: about a third
    interpreter loop (dict updates, integer arithmetic, scalar indexing of a
    small numpy table), two thirds array work (boolean matrix products,
    strided updates).  A shared host slows the two kinds by different
    amounts; this mix tracks the slowdown of the three workloads best among
    the mixes tried."""
    import numpy as np
    table = np.arange(256, dtype=np.int32).reshape(16, 16)
    counts = {}
    acc = 0
    for i in range(750):
        k = i & 255
        counts[k] = counts.get(k, 0) + 1
        acc += int(table[k >> 4, k & 15]) * i % 7
    a = np.arange(96 * 96).reshape(96, 96) % 13 == 0
    for _ in range(2):
        a = a | (a @ a)
    b = np.zeros(4096, dtype=np.int32)
    for i in range(40):
        b[i::64] += i
    return acc + int(a.sum()) + int(b.sum())


def _import_critlat():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import critlat  # noqa: F401
    return time.perf_counter() - t0


def _timed_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def run(workload, seed, seconds, trace, max_items=None, blocks=None):
    """One run; returns (result object, info dict)."""
    import_s = _import_critlat()
    import spans as tracing
    from oracle import WrongAnswer
    from workloads import WORKLOADS

    make = WORKLOADS[workload]
    blocks = blocks or POOL_BLOCKS[workload]
    setup_refs = []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rng = random.Random(seed)
        items = make(rng, 0, blocks)
        setup_times.append(time.perf_counter() - t0)
        for _ in range(5):
            setup_refs.append(_timed_reference())
    next_block = blocks

    recorder = tracing.Recorder() if trace else None
    if recorder:
        recorder.install()
    durations = []        # per attempted item: (seconds, completed?, kind)
    refs = []             # reference time measured right after each item
    refused_by_layer = Counter()
    failure = None
    l_seen, l_repeats = set(), 0
    pos = 0
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline and (max_items is None or len(durations) < max_items):
            if pos == len(items):
                # pool used up: set up fresh objects off the clock
                paused = time.perf_counter()
                items, pos = make(rng, next_block, blocks), 0
                next_block += blocks
                deadline += time.perf_counter() - paused
            item, items[pos] = items[pos], None
            pos += 1
            if item.l_key is not None:
                l_repeats += item.l_key in l_seen
                l_seen.add(item.l_key)
            if recorder:
                recorder.item = len(durations) + 1
            done = False
            t0 = time.perf_counter()
            try:
                out = item.run()
                done = True
            except tracing.REFUSALS as exc:
                refused_by_layer[tracing.refusal_layer(exc)] += 1
            finally:
                dt = time.perf_counter() - t0
                if recorder:
                    recorder.item = None
            durations.append((dt, done, item.kind))
            if done:
                item.check(out)
            refs.append(_timed_reference())
    except WrongAnswer as exc:
        failure = f"wrong answer on a {item.kind} item: {exc}"
    except Exception:
        failure = f"{item.kind} item raised:\n{traceback.format_exc()}"
    finally:
        if recorder:
            recorder.uninstall()

    attempted = len(durations)
    refs += [refs[-1] if refs else REF_S] * (attempted - len(refs))
    # each item is scaled by the host speed around it: the median reference
    # time of the two items before it, itself and the two after it
    scaled, raw_lat, lat, by_kind = 0.0, [], [], {}
    for k, (dt, done, kind) in enumerate(durations):
        dt_ref = dt * REF_S / statistics.median(refs[max(0, k - 2):k + 3])
        scaled += dt_ref
        if done:
            raw_lat.append(dt)
            lat.append(dt_ref)
            by_kind.setdefault(kind, []).append(dt)
    completed = len(lat)
    busy = sum(d[0] for d in durations)
    setup_slowdown = statistics.median(setup_refs) / REF_S
    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "items_per_s": completed / busy if busy else 0.0,
        "p50_ms": _p50_ms(raw_lat),
        "p90_ms": _p90_ms(raw_lat),
    }
    info = {"workload": workload, "seed": seed, "completed": completed,
            "refused": attempted - completed, "busy_s": busy,
            "slowdown": busy / scaled if scaled else 1.0,
            "setup_slowdown": setup_slowdown, "raw": raw, "failure": failure,
            "median_ms_by_kind": {k: [len(v), round(_p50_ms(v), 1)]
                                  for k, v in sorted(by_kind.items())}}
    if l_seen:
        info["l_repeat_share"] = l_repeats / attempted
    items_per_s = completed / scaled if scaled else 0.0
    if trace:
        info["items_per_s"] = items_per_s
        metrics = recorder.metrics(refused_by_layer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{workload}.jsonl")
        info["spans"] = len(recorder.spans)
    else:
        values = {
            "setup_s": raw["setup_s"] / setup_slowdown,
            "items_per_s": items_per_s,
            "p50_ms": _p50_ms(lat),
            "p90_ms": _p90_ms(lat),
            "refused_frac": (attempted - completed) / attempted if attempted else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info["beyond_p90"] = sum(x * 1000 > values["p90_ms"] for x in lat)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failure is None, "attempted": attempted,
              "failed": int(failure is not None), "metrics": metrics}
    return result, info


def _p50_ms(latencies):
    return statistics.median(latencies) * 1000 if latencies else 0.0


def _p90_ms(latencies):
    return statistics.quantiles(latencies, n=10)[-1] * 1000 if len(latencies) >= 2 else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("decide", "lift", "build"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "critlat" / "__init__.py").is_file():
        print(f"critlat sources not found under {SRC}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    if info["failure"]:
        print(info["failure"], file=sys.stderr)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # critlat iterates sets of string labels, so its work can depend on the
    # per-process hash seed; pin it so that a run depends only on --seed
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
