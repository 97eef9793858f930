"""Acceptance suite: one verdict line per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict
lines; every check also asserts, so failures surface under plain pytest
as well.  All comparisons are exact rational arithmetic unless a
tolerance is quoted in the verdict line.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction

from hypertrace import (
    Budget,
    audit_cored_shift,
    audit_edge_shift,
    audit_path_shift,
    build_digraph,
    coalesce,
    coalescence_local_trace,
    enumerate_hypertrees,
    enumerate_rootings,
    estrada_index,
    estrada_index_m2_oracle,
    euler_circuits_best,
    euler_circuits_exhaustive,
    extremal_scan,
    hyperpath,
    hyperstar,
    is_hypertree,
    local_trace_profile,
    new_hypergraph,
    query,
    relocation_difference,
    trace,
    trace_local,
    trace_m2_oracle,
)

from conftest import connected_graph_classes

getcontext().prec = 40

TRIANGLE = new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])

CODEGREE_HOSTS = {
    2: [hyperpath(2, 1), hyperpath(2, 2), hyperpath(2, 4),
        hyperstar(2, 3), hyperstar(2, 4)],
    3: [hyperpath(3, 1), hyperpath(3, 2), hyperpath(3, 3),
        hyperstar(3, 2), hyperstar(3, 3)],
    4: [hyperpath(4, 1), hyperpath(4, 2), hyperpath(4, 3),
        hyperstar(4, 2), hyperstar(4, 3)],
}


def verdict(number: int, ok: bool, text: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {number}: {text}")
    return ok


def test_criterion_1_graph_oracle_equivalence():
    classes = connected_graph_classes(5)
    mismatches = []
    for h in classes:
        for d in range(0, 11):
            if trace(h, d) != trace_m2_oracle(h, d):
                mismatches.append((h.edges, d))
    ok = not mismatches and len(classes) == 31
    assert verdict(
        1, ok,
        f"trace equals the adjacency-power trace on all {len(classes)} "
        "connected graphs with <= 5 vertices, every d <= 10, exactly",
    ), mismatches[:5]


def test_criterion_2_best_theorem_oracle():
    hosts = [hyperpath(3, 1), hyperpath(3, 2), TRIANGLE]
    checked = 0
    mismatches = []
    for h in hosts:
        for d in range(1, 7):
            for mat in enumerate_rootings(h, d):
                g = build_digraph(mat)
                if euler_circuits_best(g).circuits != euler_circuits_exhaustive(g):
                    mismatches.append((h.edges, mat.counts))
                checked += 1
    ok = not mismatches and checked >= 12
    assert verdict(
        2, ok,
        f"BEST-formula circuit counts match exhaustive backtracking on all "
        f"{checked} rootings of three reference hosts, d <= 6, exactly",
    ), mismatches[:5]


def test_criterion_3_codegree_identity():
    failures = []
    hosts = 0
    for m, batch in CODEGREE_HOSTS.items():
        for h in batch:
            hosts += 1
            want = m ** (m - 1) * (m - 1) ** (h.n - m) * h.edge_count
            if trace(h, m) != want:
                failures.append((m, h.edges))
    ok = not failures and hosts >= 15
    assert verdict(
        3, ok,
        f"order-m trace equals m^(m-1) * (m-1)^(n-m) * |E| on {hosts} hosts "
        "with m in {2, 3, 4}, exactly",
    ), failures


def test_criterion_4_vanishing_laws():
    failures = []
    low_hosts = [hyperpath(3, 2), hyperstar(3, 3), hyperpath(4, 2),
                 hyperstar(4, 2), TRIANGLE]
    for h in low_hosts:
        for d in range(1, h.m):
            if trace(h, d) != 0:
                failures.append(("low", h.edges, d))
    trees = [t for z in (1, 2, 3) for t in enumerate_hypertrees(3, z)]
    for t in trees:
        for d in range(1, 13):
            if d % 3 and trace(t, d) != 0:
                failures.append(("off-grid", t.edges, d))
    ok = not failures
    assert verdict(
        4, ok,
        "traces vanish for 0 < d < m on all hosts and for d not divisible "
        f"by m on all {len(trees)} hypertrees with m=3, z <= 3, d <= 12, exactly",
    ), failures[:5]


def test_criterion_5_coalescence_exactness():
    edge = hyperpath(3, 1)
    glued = coalesce(edge, 2, edge, 0)
    p1 = local_trace_profile(edge, 2, 9)
    p2 = local_trace_profile(edge, 0, 9)
    results = {d: coalescence_local_trace(p1, p2, d) for d in (3, 6, 9)}
    direct = {d: trace_local(glued, d, query(required=[2])) for d in (3, 6, 9)}
    ok = results == direct and results[3] == 72
    assert verdict(
        5, ok,
        "composed localized trace of two glued 3-edges equals the direct "
        "localized trace at d in {3, 6, 9}, exactly, with value 72 at d=3",
    ), (results, direct)


def test_criterion_6_relocation_exactness():
    configs = [
        (hyperpath(3, 2), 0, 2, hyperpath(3, 1), 0),
        (hyperpath(3, 2), 4, 1, hyperpath(3, 1), 0),
        (hyperstar(3, 2), 1, 0, hyperpath(3, 2), 2),
        (hyperpath(3, 1), 0, 1, hyperstar(3, 2), 0),
    ]
    failures = []
    compared = 0
    for host, u, v, sub, w in configs:
        for d in (3, 6, 9):
            direct = trace(coalesce(host, u, sub, w), d) - trace(
                coalesce(host, v, sub, w), d
            )
            pu = local_trace_profile(host, u, d - 1)
            pv = local_trace_profile(host, v, d - 1)
            pw = local_trace_profile(sub, w, d - 1)
            if relocation_difference(pu, pv, pw, d) != direct:
                failures.append((host.edges, u, v, d))
            compared += 1
    ok = not failures and compared >= 9
    assert verdict(
        6, ok,
        f"relocation difference equals the direct trace difference on "
        f"{len(configs)} configurations at every d <= 9, exactly",
    ), failures


def test_criterion_7_inequality_audits():
    reports = [
        audit_path_shift(hyperpath(3, 1), 0, 1, 1, 9),
        audit_edge_shift(3, 1, 1, 1, 9),
        audit_cored_shift(3, 6),
    ]
    ok = all(
        r.holds and r.observed_strict_onset is not None for r in reports
    )
    onsets = ", ".join(
        f"{r.law} claimed d={r.claimed_strict_onset} observed "
        f"d={r.observed_strict_onset}"
        for r in reports
    )
    assert verdict(
        7, ok,
        "every audited order satisfies left >= right with at least one "
        f"strict order and zero violations ({onsets})",
    ), [(r.law, r.violations) for r in reports]


def test_criterion_8_extremal_scan():
    tol = Fraction(1, 1000)
    budget = Budget(cost_limit=256)  # (3,5) needs d=27 > 128/5
    outcomes = []
    for m, z in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 5), (4, 4)]:
        report = extremal_scan(m, z, tol, budget)
        outcomes.append(
            (m, z, report.path_is_minimum, report.star_is_maximum)
        )
    ok = all(pmin and smax for _, _, pmin, smax in outcomes)
    assert verdict(
        8, ok,
        "the hyperpath is the strict Estrada minimizer and the hyperstar "
        "the strict maximizer among hypertrees for (m, z) in "
        "{(2,3), (2,4), (2,5), (3,3), (3,5), (4,4)} with disjoint brackets "
        "at tol 1e-3",
    ), outcomes


def test_criterion_9_estrada_bracket():
    tol = Fraction(1, 10**6)
    est = estrada_index(hyperpath(2, 2), tol)
    root2 = Decimal(2).sqrt()
    truth = Fraction(root2.exp() + (-root2).exp() + 1)
    contains = est.lower <= truth <= est.upper and est.width <= tol

    hosts = [
        hyperpath(2, 1), hyperpath(2, 2), hyperpath(2, 3), hyperstar(2, 3),
        TRIANGLE, new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ]
    centers_agree = all(
        abs(
            estrada_index(h, tol).center - estrada_index_m2_oracle(h, tol).center
        ) <= 2 * tol
        for h in hosts
    )
    ok = contains and centers_agree
    assert verdict(
        9, ok,
        "the tol 1e-6 bracket of the 2-edge path contains "
        "exp(sqrt(2)) + exp(-sqrt(2)) + 1 and engine/oracle bracket centers "
        f"agree within 2e-6 on {len(hosts)} graphs",
    ), (est.lower, truth, est.upper, contains, centers_agree)


def test_criterion_10_unique_rooting_law():
    hosts = [h for batch in CODEGREE_HOSTS.values() for h in batch]
    hosts += [t for z in (1, 2, 3) for t in enumerate_hypertrees(3, z)]
    hosts.append(coalesce(hyperpath(3, 1), 2, hyperpath(3, 1), 0))
    failures = []
    checked = 0
    for h in hosts:
        assert is_hypertree(h)
        m = h.m
        for d in range(1, 3 * m + 1):
            for mat in enumerate_rootings(h, d):
                checked += 1
                for row, k in zip(mat.counts, mat.k_vector):
                    if k % m or any(c * m != k for c in row):
                        failures.append((h.edges, mat.counts))
    ok = not failures and checked > 50
    assert verdict(
        10, ok,
        f"all {checked} rootings enumerated over {len(hosts)} hypertree "
        "hosts split every selected edge evenly: c[e][v] = k_e / m with "
        "k_e divisible by m",
    ), failures[:5]
