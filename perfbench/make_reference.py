"""Write ``reference.json``: the exact values the benchmark checks against.

    python3 perfbench/make_reference.py

Where an independent route exists it is used here instead of the one
the workload times: profiles come from pinned ``trace_local`` calls,
composed values from ``trace_local`` on the glued host, relocation
differences from two ``trace`` calls.  Values with no second route
(traces, brackets and audits at m = 3, the scan's brackets) are the
engine's own output at the commit that wrote this file.  The workloads
only relabel fixed classes, so the values are computed for two seeds
and must agree.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import (
    BUDGET,
    ESTRADA_TOL,
    REFERENCE_PATH,
    SCAN_TOL,
    WORKLOADS,
    build,
    composition,
    estrada,
    exact,
    fraction_str,
    hypergraph,
    traces,
)


def dense_trace(inputs: dict) -> dict:
    out: dict[str, dict] = {}
    for item in inputs["hosts"]:
        h = build(item["host"])
        if h.m != 2:
            out[item["label"]] = {
                str(d): fraction_str(traces.trace(h, d, BUDGET)) for d in range(1, item["d_max"] + 1)
            }
    return out


def tree_estrada(inputs: dict) -> dict:
    return {
        item["label"]: exact(estrada.estrada_index(build(item["host"]), ESTRADA_TOL, BUDGET))
        for item in inputs["hosts"] if item["host"][0] != 2
    }


def tree_scan(inputs: dict) -> dict:
    report = exact(estrada.extremal_scan(inputs["m"], inputs["z"], SCAN_TOL, BUDGET))
    return {"classes": report["classes"], "brackets": report["brackets"]}


def pinned_profile(h: hypergraph.UniformHypergraph, anchor: int, depth: int) -> dict:
    entries = {"0,0": fraction_str(Fraction((h.m - 1) ** (h.n - 1)))}
    for d in range(1, depth + 1):
        for t in range(1, d + 1):
            value = traces.trace_local(h, d, traces.query(pinned=(anchor, t)), BUDGET)
            if value:
                entries[f"{d},{t}"] = fraction_str(value)
    return entries


def cut_audit(inputs: dict) -> dict:
    out: dict[str, object] = {}
    for item in inputs["bases"]:
        label, depth = item["label"], item["depth"]
        base, sub = build(item["base"]), build(item["operand"])
        u, v, w = item["u"], item["v"], item["w"]
        out[f"{label}/profile/u"] = pinned_profile(base, u, depth)
        out[f"{label}/profile/v"] = pinned_profile(base, v, depth)
        out[f"{label}/profile/w"] = pinned_profile(sub, w, depth)
        glued_u = hypergraph.coalesce(base, u, sub, w)
        glued_v = hypergraph.coalesce(base, v, sub, w)
        for d in range(1, depth + 1):
            out[f"{label}/compose/{d}"] = fraction_str(
                traces.trace_local(glued_u, d, traces.query(required=[u]), BUDGET))
        for d in range(1, depth + 2):
            out[f"{label}/relocate/{d}"] = fraction_str(
                traces.trace(glued_u, d, BUDGET) - traces.trace(glued_v, d, BUDGET))
    es, cs = inputs["edge_shift"], inputs["cored_shift"]
    out["audit/edge-shift"] = exact(composition.audit_edge_shift(
        es["m"], es["p"], es["r"], es["s"], es["d_max"], [build(es["branch"])], BUDGET))
    out["audit/cored-shift"] = exact(composition.audit_cored_shift(
        cs["m"], cs["d_max"], cs["p"], None, build(cs["other"]), cs["other_vertex"], BUDGET))
    return out


COMPUTE = {"dense_trace": dense_trace, "tree_estrada": tree_estrada,
           "tree_scan": tree_scan, "cut_audit": cut_audit}


def main() -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        first, second = (COMPUTE[name](workload.generate(seed)) for seed in (1, 2))
        if first != second:
            raise SystemExit(f"{name}: reference values depend on the seed")
        reference[name] = first
        print(f"{name}: {len(first)} entries", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
