"""The hypertrace benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload dense_trace --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's ``src`` tree, nothing is installed.  Workloads are defined in
``workloads.py``; the reasons for each, the layer to end-to-end mapping
and the predictions for the roadmap items are in ``design.json``.

Each workload runs in a fresh single-threaded interpreter (``worker.py``)
started with ``HYPERTRACE_BUDGET`` removed from its environment.  The
worker repeats passes over the workload's job list for ``--seconds``
(at least three passes), checks every exact output after the timed
passes, and reports back.

``--trace 0`` reports the end-to-end metrics, as medians over passes:

* ``wall_s``: wall time of one pass, the time to a certified answer;
* ``cpu_s``: process CPU time of the same pass;
* ``setup_s``: interpreter start, ``import hypertrace`` and input
  generation, timed over several fresh interpreters;
* ``peak_rss_mb``: peak resident memory of the worker.

``--trace 1`` spends half the time on untraced passes and half on passes
with every public function of ``euler``, ``traces``, ``hypergraph``,
``estrada`` and ``composition`` wrapped in a span recorder, and reports
the per-layer metrics of the traced passes plus
``bench.trace_overhead_ratio``.  Traced outputs must equal untraced
outputs exactly, and each workload must record spans on the layers it
is meant to load and none on the layers it is meant to bypass.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A job fails when it raises
(a blown ``Budget`` included) or returns an exact value that differs
from its reference; ``error_rate`` is ``failed / attempted``.

``selftest.py`` checks the harness itself; ``make_reference.py``
rewrites ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 2  # a probe takes about 0.15 s; 11 probes + the worker stay under 180 s
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = dict(LAYER_METRICS, **{"bench.trace_overhead_ratio": "ratio"})


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("HYPERTRACE_BUDGET", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run the worker to completion; return its wall time and its JSON line."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hypertrace" / "__init__.py").is_file():
        print(f"no hypertrace source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, digests = [], set()
    if not args.trace:
        for _ in range(SETUP_PROBES):
            elapsed, probe = worker(common + ["--setup-only"], PROBE_TIMEOUT_S)
            setup.append(elapsed)
            digests.add(probe["digest"])
    _, result = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       WORKER_TIMEOUT_S)
    digests.add(result["digest"])
    problems = list(result["problems"])
    if len(digests) != 1:
        problems.append("input digest differs between interpreters")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {result['digest']}")
    print(f"passes {len(result['wall_s'])}  jobs attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g} ratio")
    if args.trace:
        metrics = result["layers"]
        for name, value in metrics.items():
            print(f"  {name:38s} {value:14.6g} {LAYER_UNITS[name]}")
        print("  share of traced wall_s by module: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(result["layer_shares"].items())))
    else:
        samples = {"wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
                   "setup_s": setup, "peak_rss_mb": [result["peak_rss_mb"]]}
        metrics = {}
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = med
            print(f"  {name:12s} median {med:.6g} {END_TO_END_UNITS[name]}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    for problem in problems:
        print(f"  problem: {problem}")
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
