"""One workload in a fresh interpreter: set up, time passes, check outputs.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this script; it is not meant to be called by hand.
With ``--setup-only`` it stops after importing the package and
generating the inputs, which is what ``setup_s`` times.  Otherwise it
prints one JSON line: per-pass wall and CPU times, peak memory, job
counts, problems found and, with ``--trace 1``, the per-layer metrics of
a separate traced run that follows the untraced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter, process_time

from workloads import SRC, WORKLOADS, Pass, Workload, hypertrace, input_digest, load_reference
from spans import Instrumented, Recorder, layer_metrics, layer_shares, median_metrics, span_totals

MIN_PASSES = 3


class Run:
    """Timed passes of one workload and the failures they produced."""

    def __init__(self, workload: Workload, inputs: dict, reference: dict) -> None:
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: dict[str, object] | None = None  # exact outputs of the first pass
        self.wrong: set[str] = set()  # jobs whose first output failed the reference check

    def one_pass(self, recorder: Recorder | None = None) -> tuple[float, float, Pass]:
        gc.collect()
        if recorder is not None:
            recorder.reset()
        p = Pass()
        wall0, cpu0 = perf_counter(), process_time()
        self.workload.run_pass(self.inputs, p)
        cpu, wall = process_time() - cpu0, perf_counter() - wall0
        self._account(p, traced=recorder is not None)
        return wall, cpu, p

    def _account(self, p: Pass, traced: bool) -> None:
        """Check a finished pass: the first against the references, every
        later one (traced or not) against the first, exactly."""
        outputs = p.exact_outputs()
        if self.expected is None:
            self.expected = outputs
            found = self.workload.check(self.inputs, outputs, self.reference)
            self.wrong = set(found)
            self.problems += [f"{key}: {why}" for key, why in sorted(found.items())]
        for key, error in p.errors.items():
            self.note(f"{key}: raised {error}")
        for key in p.keys:
            self.attempted += 1
            if key in p.errors or key in self.wrong or outputs.get(key) != self.expected.get(key):
                self.failed += 1
                if key not in p.errors and key not in self.wrong:
                    self.note(f"{key}: {'traced' if traced else 'repeated'} output differs")

    def note(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def timed(self, seconds: float, recorder: Recorder | None = None) -> list[tuple]:
        """Passes for at least ``seconds``: (wall, cpu, layer metrics, shares) each."""
        passes = []
        start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
            wall, cpu, _ = self.one_pass(recorder)
            if recorder is None:
                passes.append((wall, cpu, None, None))
                continue
            passes.append((wall, cpu, layer_metrics(recorder), layer_shares(recorder, wall)))
            for problem in self.span_problems(recorder):
                self.note(problem)
        return passes

    def span_problems(self, recorder: Recorder) -> list[str]:
        _, count, _ = span_totals(recorder)
        missing = [n for n in self.workload.loads if not count.get(n)]
        stray = [n for n in self.workload.bypasses if count.get(n)]
        out = [f"traced pass recorded no {n} span" for n in missing]
        return out + [f"traced pass recorded a {n} span" for n in stray]


def measure(workload: Workload, inputs: dict, seconds: float, trace: bool) -> dict:
    run = Run(workload, inputs, load_reference())
    untraced = run.timed(seconds / 2 if trace else seconds)
    result = {
        "wall_s": [p[0] for p in untraced],
        "cpu_s": [p[1] for p in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        recorder = Recorder()
        with Instrumented(recorder) as inst:
            for site in inst.unwrapped_sites():
                run.note(f"{site} is not wrapped")
            traced = run.timed(seconds / 2, recorder)
        recorder.reset()
        result["layers"] = median_metrics([p[2] for p in traced])
        result["layers"]["bench.trace_overhead_ratio"] = (
            statistics.median(p[0] for p in traced) / statistics.median(result["wall_s"])
        )
        result["layer_shares"] = median_metrics([p[3] for p in traced])
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not hypertrace.__file__.startswith(str(SRC)):
        print(f"hypertrace was imported from {hypertrace.__file__}, not {SRC}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    digest = input_digest(inputs)
    if args.setup_only:
        print(json.dumps({"digest": digest}))
        return 0
    try:
        result = measure(workload, inputs, args.seconds, bool(args.trace))
    except Exception:  # report the traceback; run.py turns this into a failed run
        traceback.print_exc()
        return 1
    result["digest"] = digest
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
