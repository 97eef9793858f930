"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the traced run replaces every import site of the wrapped
functions and restores them afterwards, that a traced pass returns
exactly what an untraced pass returns, that each workload records spans
on the layers it is meant to load and none on those it bypasses, that
every workload matches its references, and that a wrong value is
caught.  Exits with code 1 on any failure.
"""

from __future__ import annotations

import sys

from spans import Instrumented, Recorder
from worker import Run
from workloads import WORKLOADS, load_reference

# names that traces, composition, estrada and the package bind with
# ``from .x import y``; wrapping only the defining module would miss them
BOUND_BY_NAME = (
    ("hypertrace.traces", "enumerate_rootings"),
    ("hypertrace.traces", "contribution_parts"),
    ("hypertrace.composition", "enumerate_rootings"),
    ("hypertrace.composition", "contribution_parts"),
    ("hypertrace.composition", "trace"),
    ("hypertrace.estrada", "trace"),
    ("hypertrace.estrada", "canonical_form"),
    ("hypertrace.estrada", "enumerate_hypertrees"),
    ("hypertrace", "trace"),
    ("hypertrace", "estrada_index"),
)


def check_wrapping() -> list[str]:
    failures = []
    originals = {site: getattr(sys.modules[site[0]], site[1]) for site in BOUND_BY_NAME}
    with Instrumented(Recorder()) as inst:
        failures += [f"{site} still holds the original" for site in inst.unwrapped_sites()]
        failures += [f"{m}.{a} is not wrapped" for (m, a), fn in originals.items()
                     if getattr(sys.modules[m], a) is fn]
    failures += [f"{m}.{a} was not restored" for (m, a), fn in originals.items()
                 if getattr(sys.modules[m], a) is not fn]
    return failures


def check_workload(name: str) -> list[str]:
    workload = WORKLOADS[name]
    run = Run(workload, workload.generate(7), load_reference())
    run.one_pass()
    recorder = Recorder()
    with Instrumented(recorder):
        run.one_pass(recorder)
    failures = run.problems + run.span_problems(recorder)
    if run.failed:
        failures.append(f"{run.failed} of {run.attempted} jobs failed")
    return [f"{name}: {text}" for text in failures]


def check_mismatch_caught() -> list[str]:
    workload = WORKLOADS["dense_trace"]
    run = Run(workload, workload.generate(7), load_reference())
    _, _, p = run.one_pass()
    outputs = p.exact_outputs()
    key = next(k for k in outputs if k.startswith("K5^3") and k.endswith("/Tr3"))
    outputs[key] = "1/1" if outputs[key] != "1/1" else "2/1"
    found = workload.check(run.inputs, outputs, run.reference)
    return [] if set(found) == {key} else [f"dense_trace: altered {key}, check reported {sorted(found)}"]


def main() -> int:
    failures = check_wrapping()
    for name in WORKLOADS:
        failures += check_workload(name)
        print(f"{name}: checked", flush=True)
    failures += check_mismatch_caught()
    for text in failures:
        print(f"FAIL {text}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
