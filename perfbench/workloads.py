"""The benchmark's four workloads: seeded inputs, one pass of jobs, exact checks.

Every workload is a closed loop with one caller: a pass calls the public
functions of ``hypertrace`` one job after another, each job starting when
the previous one has returned.  The seed only relabels vertices (and so
reorders edges) of fixed isomorphism classes.  Traces, brackets, profiles
and audit verdicts are invariants of the class, so the same reference
values serve every seed, and two seeds ask for the same amount of exact
work up to the enumeration order.

Jobs reach the library through its modules (``traces.trace``, not a name
bound here), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the package is used straight from the checkout's source tree
sys.path.insert(0, str(SRC))

import hypertrace  # noqa: E402
import hypertrace.composition as composition  # noqa: E402
import hypertrace.estrada as estrada  # noqa: E402
import hypertrace.hypergraph as hypergraph  # noqa: E402
import hypertrace.traces as traces  # noqa: E402
from hypertrace.config import Budget  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# One explicit budget for every call, so HYPERTRACE_BUDGET cannot change
# the work.  cost_limit covers the largest edge_count * d asked for
# (an Estrada series on a 4-edge star runs to about d = 40).
BUDGET = Budget(cost_limit=256, arc_limit=16, tree_edge_limit=6, canon_vertex_limit=26)

ESTRADA_TOL = Fraction(1, 10**12)
SCAN_TOL = Fraction(1, 1000)

Spec = tuple  # (m, n, edges) with edges a tuple of sorted vertex tuples


def complete(m: int, n: int) -> Spec:
    return (m, n, tuple(combinations(range(n), m)))


def minus_edge(spec: Spec, edge: tuple[int, ...]) -> Spec:
    m, n, edges = spec
    return (m, n, tuple(e for e in edges if e != edge))


def tree(m: int, edges: tuple[tuple[int, ...], ...]) -> Spec:
    return (m, len(edges) * (m - 1) + 1, edges)


LOOSE_3_CYCLE: Spec = (3, 6, ((0, 1, 2), (0, 4, 5), (2, 3, 4)))

# Every isomorphism class of hypertrees with 4 edges, for m = 2 and m = 3.
TREES: dict[int, dict[str, Spec]] = {
    2: {
        "path": tree(2, ((0, 1), (0, 2), (1, 3), (2, 4))),
        "fork": tree(2, ((0, 1), (0, 2), (0, 3), (1, 4))),
        "star": tree(2, ((0, 1), (0, 2), (0, 3), (0, 4))),
    },
    3: {
        "path": tree(3, ((0, 1, 2), (0, 3, 4), (1, 5, 6), (3, 7, 8))),
        "sun": tree(3, ((0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8))),
        "fork": tree(3, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 7, 8))),
        "star": tree(3, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))),
    },
}


def build(spec: Spec) -> hypergraph.UniformHypergraph:
    """A fresh hypergraph, so no cached property survives from an earlier pass."""
    m, n, edges = spec
    return hypergraph.new_hypergraph(m, n, edges)


def relabel(spec: Spec, rng: random.Random, fixed: tuple[int, ...] = ()) -> tuple[Spec, list[int]]:
    """A random relabeling of spec that keeps the vertices in ``fixed``;
    returns the relabeled spec and the map old vertex -> new vertex."""
    m, n, edges = spec
    free = [v for v in range(n) if v not in fixed]
    images = free[:]
    rng.shuffle(images)
    perm = list(range(n))
    for v, w in zip(free, images):
        perm[v] = w
    new_edges = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))
    return (m, n, new_edges), perm


def seeded_rng(seed: int, *labels: object) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + labels)))


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def exact(value: object) -> object:
    """A plain, comparable rendering of an exact library result."""
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, bytes):
        return value.decode("ascii")
    if isinstance(value, estrada.EstradaEstimate):
        return {
            "lower": fraction_str(value.lower),
            "upper": fraction_str(value.upper),
            "depth": value.depth,
            "traces": {str(d): fraction_str(t) for d, t in sorted(value.traces.items())},
        }
    if isinstance(value, composition.LocalTraceProfile):
        return {f"{d},{t}": fraction_str(v) for (d, t), v in sorted(value.entries.items())}
    if isinstance(value, composition.InequalityAuditReport):
        return {
            "rows": [[r.d, fraction_str(r.left), fraction_str(r.right)] for r in value.rows],
            "holds": value.holds,
            "observed_strict_onset": value.observed_strict_onset,
        }
    if isinstance(value, estrada.ExtremalReport):
        return {
            "classes": len(value.entries),
            "ids": sorted(e.canonical_id for e in value.entries),
            "path_is_minimum": value.path_is_minimum,
            "star_is_maximum": value.star_is_maximum,
            "brackets": sorted(
                [fraction_str(e.estimate.lower), fraction_str(e.estimate.upper)]
                for e in value.entries
            ),
        }
    raise TypeError(f"no exact rendering for {type(value).__name__}")


class Pass:
    """One pass over a workload's jobs; keeps raw results and failures."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.results: dict[str, object] = {}
        self.errors: dict[str, str] = {}

    def job(self, key: str, fn: Callable, *args: object) -> object:
        self.keys.append(key)
        try:
            result = fn(*args)
        except Exception as exc:  # a job that raises is counted as failed; the pass goes on
            self.errors[key] = f"{type(exc).__name__}: {exc}"
            return None
        self.results[key] = result
        return result

    def exact_outputs(self) -> dict[str, object]:
        return {key: exact(value) for key, value in self.results.items()}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def input_digest(inputs: dict) -> str:
    """sha256 of the generated inputs, so two commits can show they ran the same jobs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _expect(problems: dict[str, str], outputs: dict, key: str, want: object) -> None:
    if key not in outputs:
        problems[key] = "no output"
    elif outputs[key] != want:
        problems[key] = "differs from reference"


# --- dense_trace ----------------------------------------------------------

# (label, class, highest order, relabeled copies per pass)
DENSE_HOSTS = (
    ("K5", complete(2, 5), 8, 1),
    ("K5^3", complete(3, 5), 7, 1),
    ("K5-e", minus_edge(complete(2, 5), (0, 1)), 8, 2),
    ("K6-e", minus_edge(complete(2, 6), (0, 1)), 6, 3),
)


def dense_generate(seed: int) -> dict:
    hosts = []
    for label, spec, d_max, copies in DENSE_HOSTS:
        for copy in range(copies):
            relabeled, _ = relabel(spec, seeded_rng(seed, "dense_trace", label, copy))
            hosts.append({"label": label, "copy": copy, "host": relabeled, "d_max": d_max})
    return {"hosts": hosts}


def dense_pass(inputs: dict, p: Pass) -> None:
    for item in inputs["hosts"]:
        h = build(item["host"])
        for d in range(1, item["d_max"] + 1):
            p.job(f"{item['label']}#{item['copy']}/Tr{d}", traces.trace, h, d, BUDGET)


def dense_check(inputs: dict, outputs: dict, reference: dict) -> dict[str, str]:
    problems: dict[str, str] = {}
    for item in inputs["hosts"]:
        h = build(item["host"])
        for d in range(1, item["d_max"] + 1):
            key = f"{item['label']}#{item['copy']}/Tr{d}"
            if h.m == 2:
                want = fraction_str(Fraction(traces.trace_m2_oracle(h, d)))
            else:
                want = reference["dense_trace"][item["label"]].get(str(d))
            _expect(problems, outputs, key, want)
    return problems


# --- tree_estrada ---------------------------------------------------------

TREE_ESTRADA_COPIES = 2


def tree_estrada_generate(seed: int) -> dict:
    hosts = []
    for m, classes in TREES.items():
        for label, spec in classes.items():
            for copy in range(TREE_ESTRADA_COPIES):
                relabeled, _ = relabel(spec, seeded_rng(seed, "tree_estrada", m, label, copy))
                hosts.append({"label": f"m{m}-{label}", "copy": copy, "host": relabeled})
    return {"hosts": hosts, "tol": fraction_str(ESTRADA_TOL)}


def tree_estrada_pass(inputs: dict, p: Pass) -> None:
    for item in inputs["hosts"]:
        p.job(f"{item['label']}#{item['copy']}", estrada.estrada_index,
              build(item["host"]), ESTRADA_TOL, BUDGET)


def tree_estrada_check(inputs: dict, outputs: dict, reference: dict) -> dict[str, str]:
    problems: dict[str, str] = {}
    for item in inputs["hosts"]:
        h = build(item["host"])
        if h.m == 2:
            want = exact(estrada.estrada_index_m2_oracle(h, ESTRADA_TOL, BUDGET))
        else:
            want = reference["tree_estrada"].get(item["label"])
        _expect(problems, outputs, f"{item['label']}#{item['copy']}", want)
    return problems


# --- tree_scan ------------------------------------------------------------

SCAN_M, SCAN_Z = 3, 4
# the star is left out: its labeling already dominates the scan itself
SCAN_RELABELED = ("path", "sun", "fork")


def tree_scan_generate(seed: int) -> dict:
    relabeled = {
        label: relabel(TREES[SCAN_M][label], seeded_rng(seed, "tree_scan", label))[0]
        for label in SCAN_RELABELED
    }
    return {"m": SCAN_M, "z": SCAN_Z, "tol": fraction_str(SCAN_TOL), "relabeled": relabeled}


def tree_scan_pass(inputs: dict, p: Pass) -> None:
    p.job("scan", estrada.extremal_scan, inputs["m"], inputs["z"], SCAN_TOL, BUDGET)
    for label, spec in inputs["relabeled"].items():
        p.job(f"canonical/{label}", hypergraph.canonical_form, build(spec), BUDGET)


def tree_scan_check(inputs: dict, outputs: dict, reference: dict) -> dict[str, str]:
    problems: dict[str, str] = {}
    report = outputs.get("scan")
    want = reference["tree_scan"]
    if report is None:
        problems["scan"] = "no output"
    elif report["classes"] != want["classes"]:
        problems["scan"] = f"{report['classes']} classes, expected {want['classes']}"
    elif not (report["path_is_minimum"] and report["star_is_maximum"]):
        problems["scan"] = "path minimum or star maximum not certified"
    elif report["brackets"] != want["brackets"]:
        problems["scan"] = "brackets differ from reference"
    ids = set(report["ids"]) if report else set()
    seen = set()
    for label in inputs["relabeled"]:
        key = f"canonical/{label}"
        shape = build(TREES[SCAN_M][label])
        if key not in outputs:
            problems[key] = "no output"
        elif outputs[key] != exact(hypergraph.canonical_form(shape, BUDGET)):
            problems[key] = "relabeling changed the canonical form"
        elif estrada.class_id(shape, BUDGET) not in ids or outputs[key] in seen:
            problems[key] = "relabeled class is not a distinct class of the scan"
        seen.add(outputs.get(key))
    return problems


# --- cut_audit ------------------------------------------------------------

# (label, base class, anchor u, anchor v, operand class, operand anchor, depth)
CUT_BASES = (
    ("K4", complete(2, 4), 0, 1, tree(2, ((0, 1), (1, 2))), 0, 11),
    ("C3^3", LOOSE_3_CYCLE, 0, 1, tree(3, ((0, 1, 2), (2, 3, 4))), 0, 24),
)
PATH_SHIFT = {"r": 2, "s": 2, "d_max": 8}
EDGE_SHIFT = {"m": 3, "p": 1, "r": 1, "s": 1, "d_max": 18}
CORED_SHIFT = {"m": 3, "p": 1, "d_max": 18}


def cut_audit_generate(seed: int) -> dict:
    bases = []
    for label, spec, u, v, operand, w, depth in CUT_BASES:
        base, perm = relabel(spec, seeded_rng(seed, "cut_audit", label))
        sub, sub_perm = relabel(operand, seeded_rng(seed, "cut_audit", label, "operand"))
        bases.append({"label": label, "base": base, "u": perm[u], "v": perm[v],
                      "operand": sub, "w": sub_perm[w], "depth": depth})
    k4 = bases[0]
    # audit_edge_shift glues each branch at the branch's vertex 0
    branch, _ = relabel(LOOSE_3_CYCLE, seeded_rng(seed, "cut_audit", "branch"), fixed=(0,))
    other, other_perm = relabel(LOOSE_3_CYCLE, seeded_rng(seed, "cut_audit", "other"))
    return {
        "bases": bases,
        "path_shift": dict(PATH_SHIFT, host=k4["base"], w=k4["u"]),
        "edge_shift": dict(EDGE_SHIFT, branch=branch),
        "cored_shift": dict(CORED_SHIFT, other=other, other_vertex=other_perm[0]),
    }


def cut_audit_pass(inputs: dict, p: Pass) -> None:
    for item in inputs["bases"]:
        label, depth = item["label"], item["depth"]
        base = build(item["base"])
        pu = p.job(f"{label}/profile/u", composition.local_trace_profile, base, item["u"], depth, BUDGET)
        pv = p.job(f"{label}/profile/v", composition.local_trace_profile, base, item["v"], depth, BUDGET)
        pw = p.job(f"{label}/profile/w", composition.local_trace_profile,
                   build(item["operand"]), item["w"], depth, BUDGET)
        for d in range(1, depth + 1):
            p.job(f"{label}/compose/{d}", composition.coalescence_local_trace, pu, pw, d)
        for d in range(1, depth + 2):
            p.job(f"{label}/relocate/{d}", composition.relocation_difference, pu, pv, pw, d)
    ps, es, cs = inputs["path_shift"], inputs["edge_shift"], inputs["cored_shift"]
    p.job("audit/path-shift", composition.audit_path_shift,
          build(ps["host"]), ps["w"], ps["r"], ps["s"], ps["d_max"], BUDGET)
    p.job("audit/edge-shift", composition.audit_edge_shift,
          es["m"], es["p"], es["r"], es["s"], es["d_max"], [build(es["branch"])], BUDGET)
    p.job("audit/cored-shift", composition.audit_cored_shift,
          cs["m"], cs["d_max"], cs["p"], None, build(cs["other"]), cs["other_vertex"], BUDGET)


def _oracle_trace(h: hypergraph.UniformHypergraph, d: int) -> Fraction:
    return Fraction(traces.trace_m2_oracle(h, d))


def cut_audit_check(inputs: dict, outputs: dict, reference: dict) -> dict[str, str]:
    problems: dict[str, str] = {}
    ref = reference["cut_audit"]
    for item in inputs["bases"]:
        label, depth = item["label"], item["depth"]
        for anchor in ("u", "v", "w"):
            key = f"{label}/profile/{anchor}"
            _expect(problems, outputs, key, ref[key])
        for d in range(1, depth + 1):
            key = f"{label}/compose/{d}"
            _expect(problems, outputs, key, ref[key])
        base, sub = build(item["base"]), build(item["operand"])
        glued_u = hypergraph.coalesce(base, item["u"], sub, item["w"])
        glued_v = hypergraph.coalesce(base, item["v"], sub, item["w"])
        for d in range(1, depth + 2):
            key = f"{label}/relocate/{d}"
            if base.m == 2:
                want = fraction_str(_oracle_trace(glued_u, d) - _oracle_trace(glued_v, d))
            else:
                want = ref[key]
            _expect(problems, outputs, key, want)
    for law in ("edge-shift", "cored-shift"):
        _expect(problems, outputs, f"audit/{law}", ref[f"audit/{law}"])
    key = "audit/path-shift"
    report = outputs.get(key)
    if report is None:
        problems[key] = "no output"
    else:
        ps = inputs["path_shift"]
        host = build(ps["host"])

        def with_paths(a: int, b: int) -> hypergraph.UniformHypergraph:
            # pendant graph paths of lengths a and b glued at w by their far ends
            g = hypergraph.coalesce(host, ps["w"], hypergraph.hyperpath(2, a), a)
            return hypergraph.coalesce(g, ps["w"], hypergraph.hyperpath(2, b), b) if b else g

        larger = with_paths(ps["r"], ps["s"])
        smaller = with_paths(ps["r"] + 1, ps["s"] - 1)
        rows = [[d, fraction_str(_oracle_trace(larger, d)), fraction_str(_oracle_trace(smaller, d))]
                for d in range(1, ps["d_max"] + 1)]
        if report["rows"] != rows:
            problems[key] = "rows differ from the matrix-power oracle"
        elif not report["holds"]:
            problems[key] = "law violated"
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], dict]
    run_pass: Callable[[dict, Pass], None]
    check: Callable[[dict, dict, dict], dict[str, str]]
    loads: tuple[str, ...]  # spans a traced pass must record
    bypasses: tuple[str, ...]  # spans a traced pass must not record


COMPOSITION_SPANS = (
    "composition.local_trace_profile",
    "composition.coalescence_local_trace",
    "composition.relocation_difference",
    "composition.audit_path_shift",
    "composition.audit_edge_shift",
    "composition.audit_cored_shift",
)
LABELING_SPANS = ("hypergraph.canonical_form", "hypergraph.enumerate_hypertrees")
ESTRADA_SPANS = ("estrada.estrada_index", "estrada.extremal_scan")

# Why each workload exists is recorded in BENCHMARK.json and design.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense_trace", dense_generate, dense_pass, dense_check,
            loads=("traces.trace", "euler.enumerate_rootings", "euler.contribution_parts",
                   "euler.build_digraph", "euler.arborescence_count"),
            bypasses=LABELING_SPANS + ESTRADA_SPANS + COMPOSITION_SPANS,
        ),
        Workload(
            "tree_estrada", tree_estrada_generate, tree_estrada_pass, tree_estrada_check,
            loads=("estrada.estrada_index", "traces.trace", "euler.enumerate_rootings"),
            bypasses=LABELING_SPANS + ("estrada.extremal_scan",) + COMPOSITION_SPANS,
        ),
        Workload(
            "tree_scan", tree_scan_generate, tree_scan_pass, tree_scan_check,
            loads=LABELING_SPANS + ESTRADA_SPANS + ("traces.trace",),
            bypasses=COMPOSITION_SPANS,
        ),
        Workload(
            "cut_audit", cut_audit_generate, cut_audit_pass, cut_audit_check,
            loads=COMPOSITION_SPANS + ("traces.trace", "euler.enumerate_rootings"),
            bypasses=LABELING_SPANS + ESTRADA_SPANS,
        ),
    )
}
