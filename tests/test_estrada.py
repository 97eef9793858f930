"""Estrada enclosures, tail bounds, rendering, and extremal scans."""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from hypertrace import (
    Budget,
    LimitExceeded,
    ValidationError,
    decimal_str,
    enumerate_hypertrees,
    estrada_index,
    estrada_index_m2_oracle,
    extremal_scan,
    hyperpath,
    hyperstar,
    new_hypergraph,
    spectral_radius_bound,
)
import hypertrace.estrada as estrada_module
from hypertrace.estrada import E_UPPER, class_id

TOL6 = Fraction(1, 10**6)

getcontext().prec = 40


def exact_enough(value: Decimal) -> Fraction:
    """A 40-digit decimal constant as an exact rational; its error is
    far below every bracket width used here."""
    return Fraction(value)


class TestTailMachinery:
    def test_e_upper_is_a_true_upper_bound(self):
        e_40_digits = Decimal(1).exp()
        assert E_UPPER > exact_enough(e_40_digits)
        assert E_UPPER - exact_enough(e_40_digits) < Fraction(1, 10**13)

    def test_radius_bound_is_max_degree(self):
        assert spectral_radius_bound(hyperstar(3, 4)) == 4
        assert spectral_radius_bound(hyperpath(2, 2)) == 2
        assert spectral_radius_bound(new_hypergraph(2, 1, [])) == 0


class TestBrackets:
    def test_edgeless_host_is_exact(self):
        one = new_hypergraph(2, 1, [])
        est = estrada_index(one, Fraction(0))
        assert est.lower == est.upper == 1

    def test_k2_matches_closed_form(self):
        est = estrada_index(hyperpath(2, 1), TOL6)
        truth = exact_enough(Decimal(1).exp() + Decimal(-1).exp())
        assert est.lower <= truth <= est.upper
        assert est.width <= TOL6

    def test_two_edge_path_matches_closed_form(self):
        est = estrada_index(hyperpath(2, 2), TOL6)
        root2 = Decimal(2).sqrt()
        truth = exact_enough(root2.exp() + (-root2).exp() + 1)
        assert est.lower <= truth <= est.upper
        assert est.width <= TOL6

    def test_triangle_matches_closed_form(self):
        tri = new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
        est = estrada_index(tri, TOL6)
        truth = exact_enough(Decimal(2).exp() + 2 * Decimal(-1).exp())
        assert est.lower <= truth <= est.upper

    def test_single_3_edge_matches_its_trace_series(self):
        # traces are 12 at order zero and 9 at every positive multiple
        # of three, so the series has an elementary closed tail
        est = estrada_index(hyperpath(3, 1), TOL6)
        partial = Fraction(12) + 9 * sum(
            Fraction(1, math.factorial(3 * k)) for k in range(1, 12)
        )
        assert est.lower <= partial <= est.upper
        assert est.width <= TOL6

    def test_hypertree_series_skips_off_grid_orders(self):
        est = estrada_index(hyperpath(3, 2), Fraction(1, 100))
        positive = [d for d in est.traces if d > 0]
        assert positive
        assert all(d % 3 == 0 for d in positive)

    def test_refinement_nests(self):
        h = hyperpath(2, 2)
        coarse = estrada_index(h, Fraction(1, 100))
        fine = estrada_index(h, TOL6)
        assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper

    def test_oracle_bracket_is_identical_for_graphs(self):
        # both engines feed exact integers into the same series, so the
        # enclosures agree not just to 2*tol but exactly
        for h in [hyperpath(2, 2), hyperstar(2, 3)]:
            a = estrada_index(h, Fraction(1, 10**4))
            b = estrada_index_m2_oracle(h, Fraction(1, 10**4))
            assert (a.lower, a.upper, a.depth) == (b.lower, b.upper, b.depth)
            assert abs(a.center - b.center) <= 2 * Fraction(1, 10**4)
        # deep series on every graph tree with up to six edges: the block
        # DP's traces, read one order at a time, against the matrix powers
        tol, budget = Fraction(1, 10**12), Budget(cost_limit=512)
        for z in range(1, 7):
            for h in enumerate_hypertrees(2, z):
                a = estrada_index(h, tol, budget)
                b = estrada_index_m2_oracle(h, tol, budget)
                assert (a.lower, a.upper, a.depth) == (b.lower, b.upper, b.depth)
                assert a.traces == b.traces

    def test_negative_tolerance_rejected(self):
        # so is a tolerance that is not a finite number
        for tol in (Fraction(-1, 10), float("nan"), float("inf"), float("-inf"), "huh", None,
                    "1/0", "0/0"):
            with pytest.raises(ValidationError):
                estrada_index(hyperpath(2, 1), tol)
            with pytest.raises(ValidationError):
                estrada_index_m2_oracle(hyperpath(2, 1), tol)

    def test_boolean_tolerance_rejected(self):
        # True would read as tol 1 and False as tol 0
        for tol in (True, False):
            with pytest.raises(ValidationError):
                estrada_index(hyperpath(2, 1), tol)
            with pytest.raises(ValidationError):
                extremal_scan(2, 2, tol)

    def test_zero_tolerance_is_rejected_on_real_hosts(self, monkeypatch):
        # the tail bound is positive at every depth once the host has an
        # edge, so no bracket reaches width 0: refused before any trace
        monkeypatch.setattr(estrada_module, "trace", None)
        monkeypatch.setattr(estrada_module, "trace_m2_oracle", None)
        huge = Budget(cost_limit=10**9)
        for h in (hyperpath(2, 1), hyperpath(3, 2)):
            with pytest.raises(ValidationError, match="tolerance 0"):
                estrada_index(h, Fraction(0), huge)
        with pytest.raises(ValidationError, match="tolerance 0"):
            estrada_index_m2_oracle(hyperpath(2, 1), 0, huge)

    def test_budget_limits_series_depth(self):
        with pytest.raises(LimitExceeded):
            estrada_index(hyperpath(3, 2), TOL6, Budget(cost_limit=10))


class TestDecimalRendering:
    def test_half_even_default(self):
        assert decimal_str(Fraction(1, 3), 4) == "0.3333"
        assert decimal_str(Fraction(25, 1000), 2) == "0.02"
        assert decimal_str(Fraction(35, 1000), 2) == "0.04"

    def test_floor_and_ceil_keep_brackets_valid(self):
        assert decimal_str(Fraction(1, 3), 2, rounding="floor") == "0.33"
        assert decimal_str(Fraction(1, 3), 2, rounding="ceil") == "0.34"
        assert decimal_str(Fraction(-1, 3), 2, rounding="floor") == "-0.34"
        assert decimal_str(Fraction(-1, 3), 2, rounding="ceil") == "-0.33"

    def test_exact_values_render_exactly(self):
        assert decimal_str(Fraction(126), 3) == "126.000"
        assert decimal_str(Fraction(-5, 4), 2) == "-1.25"
        assert decimal_str(Fraction(7, 2), 0) == "4"

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValidationError):
            decimal_str(Fraction(1), -1)
        with pytest.raises(ValidationError):
            decimal_str(Fraction(1), 2, rounding="nearest")
        # 2.5 died with TypeError and True printed one place
        for places in (2.5, True, "2"):
            with pytest.raises(ValidationError):
                decimal_str(Fraction(1, 3), places)


class TestExtremalScan:
    def test_three_edge_graph_scan(self):
        report = extremal_scan(2, 3, Fraction(1, 1000))
        assert len(report.entries) == 2
        assert [e.rank for e in report.entries] == [1, 2]
        assert report.path_is_minimum and report.star_is_maximum
        assert report.minimizer_id == class_id(hyperpath(2, 3))
        assert report.maximizer_id == class_id(hyperstar(2, 3))
        assert report.indeterminate == ()

    def test_entries_sorted_by_center(self):
        report = extremal_scan(2, 5, Fraction(1, 1000))
        centers = [e.estimate.center for e in report.entries]
        assert centers == sorted(centers)
        assert len(report.entries) == 6

    def test_loose_tolerance_can_leave_the_ranking_open(self):
        report = extremal_scan(2, 5, Fraction(4))
        assert report.indeterminate
        assert report.minimizer_id is None or report.maximizer_id is None

    @pytest.mark.parametrize("m, z, tol, certified, overlaps", [
        (2, 5, Fraction(4), (False, False), 15),
        (2, 5, Fraction(1), (True, True), 2),
        (2, 5, Fraction(1, 1000), (True, True), 0),
        (3, 5, Fraction(1), (False, True), 4),
    ])
    def test_extremes_are_certified_by_the_pairwise_disjointness_test(
            self, m, z, tol, certified, overlaps):
        report = extremal_scan(m, z, tol)

        def disjoint_from_all(candidate):
            return all(
                other is candidate
                or candidate.estimate.upper < other.estimate.lower
                or other.estimate.upper < candidate.estimate.lower
                for other in report.entries
            )

        low = min(report.entries, key=lambda e: e.estimate.lower)
        high = max(report.entries, key=lambda e: e.estimate.upper)
        want = [e.canonical_id if disjoint_from_all(e) else None for e in (low, high)]
        assert [report.minimizer_id, report.maximizer_id] == want
        assert [cid is not None for cid in want] == list(certified)
        assert len(report.indeterminate) == overlaps

    def test_csv_shape(self):
        report = extremal_scan(2, 3, Fraction(1, 100))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "id,n,degrees,ee_lower,ee_upper,rank"
        assert len(lines) == 3

    def test_json_shape(self):
        report = extremal_scan(3, 2, Fraction(1, 100))
        payload = report.to_json_dict()
        assert payload["m"] == 3 and payload["z"] == 2
        assert len(payload["classes"]) == 1
        assert payload["path_is_minimum"] and payload["star_is_maximum"]

    def test_tolerance_must_be_positive(self):
        for tol in (Fraction(0), Fraction(-1, 10), float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                extremal_scan(2, 3, tol)

    def test_class_ids_stable_under_relabeling(self):
        from hypertrace import permute_vertices

        h = hyperstar(3, 2)
        assert class_id(h) == class_id(permute_vertices(h, [4, 3, 2, 1, 0]))
