"""Profiles, cut-vertex composition, relocation, and inequality audits."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrace import (
    AuditRow,
    InequalityAuditReport,
    MissingProfileEntry,
    MixedUniformity,
    ValidationError,
    VertexOutOfRange,
    audit_cored_shift,
    audit_edge_shift,
    audit_path_shift,
    coalesce,
    coalescence_local_trace,
    hyperpath,
    hyperstar,
    local_trace_profile,
    new_hypergraph,
    query,
    relocation_difference,
    trace,
    trace_local,
)
from hypertrace.euler import contribution, enumerate_rootings

EDGE3 = hyperpath(3, 1)
PIECES = {
    2: (new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)]),
        new_hypergraph(2, 4, combinations(range(4), 2)),
        new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        hyperpath(2, 1)),
    3: (new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]),
        new_hypergraph(3, 4, combinations(range(4), 3)),
        EDGE3),
}


def glued_with_profiles(h1, u, h2, v, d_max):
    glued = coalesce(h1, u, h2, v)
    p1 = local_trace_profile(h1, u, d_max)
    p2 = local_trace_profile(h2, v, d_max)
    return glued, p1, p2


class TestProfiles:
    def test_single_edge_profile_entries(self):
        p = local_trace_profile(EDGE3, 0, 9)
        assert p.entries == {
            (0, 0): Fraction(4),
            (3, 1): Fraction(9),
            (6, 2): Fraction(9),
            (9, 3): Fraction(9),
        }

    def test_absent_entries_read_as_zero(self):
        p = local_trace_profile(EDGE3, 0, 6)
        assert p.value(3, 2) == 0
        assert p.value(4, 1) == 0
        assert p.value(0, 0) == Fraction(4)

    def test_depth_and_shape_guarded(self):
        p = local_trace_profile(EDGE3, 0, 3)
        with pytest.raises(MissingProfileEntry):
            p.value(6, 1)
        with pytest.raises(ValidationError):
            p.value(3, 4)
        with pytest.raises(ValidationError):
            p.value(-1, 0)
        # 2.5 read as an absent entry and returned 0
        for d, t in ((2.5, 1), (3, 1.0), ("3", 1), (True, 1), (3, True)):
            with pytest.raises(ValidationError):
                p.value(d, t)

    def test_anchor_validated(self):
        with pytest.raises(VertexOutOfRange):
            local_trace_profile(EDGE3, 5, 3)
        # a non-integer anchor matches no root count and would give an
        # all-zero profile, so it is rejected rather than coerced
        for anchor in (1.5, True, "1"):
            with pytest.raises(ValidationError):
                local_trace_profile(hyperpath(3, 2), anchor, 6)

    def test_order_validated(self):
        # True would build a profile with d_max=True, 2.5 died with TypeError
        for d_max in (True, 2.5, 6.0, -1):
            with pytest.raises(ValidationError):
                local_trace_profile(hyperpath(3, 2), 0, d_max)

    def test_profile_slices_the_required_trace(self):
        h = hyperstar(3, 2)
        p = local_trace_profile(h, 0, 6)
        for d in (3, 6):
            total = sum(p.value(d, t) for t in range(1, d + 1))
            assert total == trace_local(h, d, query(required=[0]))


class TestCoalescence:
    def test_two_single_edges(self):
        glued, p1, p2 = glued_with_profiles(EDGE3, 2, EDGE3, 0, 9)
        for d, want in [(3, 72), (6, 126), (9, 234)]:
            assert coalescence_local_trace(p1, p2, d) == want
            assert coalescence_local_trace(p1, p2, d) == trace_local(
                glued, d, query(required=[2])
            )

    def test_composition_matches_localized_trace_on_varied_operands(self):
        cases = [
            (hyperpath(3, 2), 0, EDGE3, 0),
            (hyperpath(3, 2), 2, EDGE3, 1),
            (hyperstar(3, 2), 0, hyperpath(3, 2), 2),
            (hyperpath(4, 1), 1, hyperpath(4, 1), 3),
        ]
        for h1, u, h2, v in cases:
            m = h1.m
            glued, p1, p2 = glued_with_profiles(h1, u, h2, v, 2 * m)
            for d in (m, 2 * m):
                assert coalescence_local_trace(p1, p2, d) == trace_local(
                    glued, d, query(required=[u])
                ), (h1.edges, u, h2.edges, v, d)

    def test_whole_trace_decomposes_through_the_cut_vertex(self):
        # trace = (rootings through the cut) + (rootings inside each side)
        h1, u, h2, v = hyperpath(3, 2), 2, hyperstar(3, 2), 0
        glued, p1, p2 = glued_with_profiles(h1, u, h2, v, 6)
        for d in (3, 6):
            through = coalescence_local_trace(p1, p2, d)
            # each vertex a side lacks multiplies its weights by m-1 = 2
            side1 = trace_local(h1, d, query(forbidden=[u])) * 2 ** (glued.n - h1.n)
            side2 = trace_local(h2, d, query(forbidden=[v])) * 2 ** (glued.n - h2.n)
            assert through + side1 + side2 == trace(glued, d)

    def test_order_zero_convention_feeds_one_sided_terms(self):
        # at (d1, t1) = (0, 0) only the other side roots the cut vertex;
        # dropping the convention would lose every one-sided rooting
        glued, p1, p2 = glued_with_profiles(EDGE3, 0, EDGE3, 0, 3)
        one_sided = 2 * 9 * 2 ** (5 - 3)  # Tr_3 = 9 of each edge, on 5 vertices
        assert coalescence_local_trace(p1, p2, 3) == one_sided

    def test_mixed_uniformity_rejected(self):
        p1 = local_trace_profile(EDGE3, 0, 3)
        p2 = local_trace_profile(hyperpath(4, 1), 0, 3)
        with pytest.raises(ValidationError):
            coalescence_local_trace(p1, p2, 3)

    def test_depth_guarded(self):
        p1 = local_trace_profile(EDGE3, 0, 3)
        p2 = local_trace_profile(EDGE3, 0, 6)
        with pytest.raises(MissingProfileEntry):
            coalescence_local_trace(p1, p2, 6)
        # 2.5, 3.0 and "3" died with TypeError, True passed as order 1
        for d in (0, 2.5, 3.0, "3", True):
            with pytest.raises(ValidationError):
                coalescence_local_trace(p1, p2, d)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), d=st.sampled_from([3, 6]))
    def test_composition_property_on_random_anchors(self, data, d):
        h1 = data.draw(st.sampled_from([EDGE3, hyperpath(3, 2), hyperstar(3, 2)]))
        h2 = data.draw(st.sampled_from([EDGE3, hyperpath(3, 2)]))
        u = data.draw(st.integers(min_value=0, max_value=h1.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=h2.n - 1))
        glued, p1, p2 = glued_with_profiles(h1, u, h2, v, d)
        assert coalescence_local_trace(p1, p2, d) == trace_local(
            glued, d, query(required=[u])
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_three_routes_agree_on_random_coalescences(self, data):
        # block DP, cut-vertex composition of two profiles, and every
        # rooting of the glued host enumerated
        m = data.draw(st.sampled_from((2, 3)))
        piece = st.sampled_from(PIECES[m])
        h1 = data.draw(piece)
        for _ in range(data.draw(st.integers(min_value=0, max_value=1))):
            h2 = data.draw(piece)
            u = data.draw(st.integers(min_value=0, max_value=h1.n - 1))
            w = data.draw(st.integers(min_value=0, max_value=h2.n - 1))
            h1 = coalesce(h1, u, h2, w)
        h2 = data.draw(piece)
        u = data.draw(st.integers(min_value=0, max_value=h1.n - 1))
        w = data.draw(st.integers(min_value=0, max_value=h2.n - 1))
        d = data.draw(st.integers(min_value=1, max_value=6))
        glued, p1, p2 = glued_with_profiles(h1, u, h2, w, d)
        rootings = [(mat.root_counts, contribution(mat, glued.n))
                    for mat in enumerate_rootings(glued, d)]
        assert trace(glued, d) == sum((x for _, x in rootings), Fraction(0))
        through = sum((x for roots, x in rootings if u in roots), Fraction(0))
        assert coalescence_local_trace(p1, p2, d) == through
        assert trace_local(glued, d, query(required=[u])) == through


class TestRelocation:
    def test_matches_direct_difference_on_path_host(self):
        host = hyperpath(3, 2)
        sub = EDGE3
        for (u, v) in [(0, 2), (4, 2), (0, 1)]:
            for d in (3, 6, 9):
                direct = trace(coalesce(host, u, sub, 0), d) - trace(
                    coalesce(host, v, sub, 0), d
                )
                pu = local_trace_profile(host, u, d - 1)
                pv = local_trace_profile(host, v, d - 1)
                pw = local_trace_profile(sub, 0, d - 1)
                assert relocation_difference(pu, pv, pw, d) == direct

    def test_end_to_cut_relocation_value(self):
        host = hyperpath(3, 2)
        pu = local_trace_profile(host, 0, 5)
        pv = local_trace_profile(host, 2, 5)
        pw = local_trace_profile(EDGE3, 0, 5)
        assert relocation_difference(pu, pv, pw, 6) == -216

    def test_star_center_versus_leaf(self):
        host = hyperstar(3, 2)
        sub = hyperpath(3, 2)
        for d in (3, 6):
            direct = trace(coalesce(host, 1, sub, 0), d) - trace(
                coalesce(host, 0, sub, 0), d
            )
            pu = local_trace_profile(host, 1, d - 1)
            pv = local_trace_profile(host, 0, d - 1)
            pw = local_trace_profile(sub, 0, d - 1)
            assert relocation_difference(pu, pv, pw, d) == direct

    def test_depth_guarded(self):
        p = local_trace_profile(EDGE3, 0, 3)
        with pytest.raises(MissingProfileEntry):
            relocation_difference(p, p, p, 5)
        for d in (0, 2.5, 3.0, "3", True):
            with pytest.raises(ValidationError):
                relocation_difference(p, p, p, d)

    def test_sides_must_anchor_the_same_operand(self):
        pu = local_trace_profile(hyperpath(3, 2), 0, 5)
        pv = local_trace_profile(hyperstar(3, 3), 0, 5)
        pw = local_trace_profile(EDGE3, 0, 5)
        with pytest.raises(ValidationError):
            relocation_difference(pu, pv, pw, 6)

    def test_mixed_uniformity_rejected(self):
        p = local_trace_profile(hyperpath(3, 2), 0, 5)
        pw = local_trace_profile(hyperpath(4, 1), 0, 5)
        with pytest.raises(MixedUniformity):
            relocation_difference(p, p, pw, 6)

    def test_identical_anchors_cancel(self):
        p = local_trace_profile(hyperpath(3, 2), 0, 5)
        pw = local_trace_profile(EDGE3, 0, 5)
        assert relocation_difference(p, p, pw, 6) == 0


class TestAuditReports:
    def test_row_verdicts(self):
        assert AuditRow(3, Fraction(2), Fraction(1)).verdict == "strict"
        assert AuditRow(3, Fraction(1), Fraction(1)).verdict == "equal"
        assert AuditRow(3, Fraction(0), Fraction(1)).verdict == "violates"

    def test_report_aggregates(self):
        rows = (
            AuditRow(1, Fraction(0), Fraction(0)),
            AuditRow(2, Fraction(5), Fraction(3)),
            AuditRow(3, Fraction(1), Fraction(2)),
        )
        report = InequalityAuditReport(
            law="demo", params={}, rows=rows, claimed_strict_onset=2
        )
        assert report.observed_strict_onset == 2
        assert report.violations == (3,)
        assert not report.holds

    def test_all_equal_report_has_no_onset(self):
        rows = (AuditRow(1, Fraction(0), Fraction(0)),)
        report = InequalityAuditReport(
            law="demo", params={}, rows=rows, claimed_strict_onset=1
        )
        assert report.observed_strict_onset is None
        assert report.holds

    def test_json_shape(self):
        report = audit_path_shift(EDGE3, 0, 1, 1, 3)
        payload = report.to_json_dict()
        assert payload["law"] == "path-shift"
        assert payload["claimed_strict_onset"] == 3
        assert [row["d"] for row in payload["rows"]] == [1, 2, 3]
        assert all(
            set(row) == {"d", "left", "right", "verdict"} for row in payload["rows"]
        )


class TestAuditLaws:
    def test_path_shift_holds_with_late_onset(self):
        report = audit_path_shift(EDGE3, 0, 1, 1, 9)
        assert report.holds
        assert report.claimed_strict_onset == 3
        assert report.observed_strict_onset == 6
        assert {row.verdict for row in report.rows} == {"equal", "strict"}

    def test_path_shift_larger_host(self):
        report = audit_path_shift(hyperpath(3, 2), 2, 2, 1, 6)
        assert report.holds
        assert report.observed_strict_onset == 6

    def test_path_shift_validation(self):
        with pytest.raises(ValidationError):
            audit_path_shift(EDGE3, 0, 1, 2, 6)  # needs r >= s
        # a string r or s died with TypeError on r >= s
        for r, s in (("2", 1), (2, "1"), ("2", "1")):
            with pytest.raises(ValidationError):
                audit_path_shift(EDGE3, 0, r, s, 6)
        with pytest.raises(VertexOutOfRange):
            audit_path_shift(EDGE3, 9, 1, 1, 6)
        for w in (True, 1.0):
            with pytest.raises(ValidationError):
                audit_path_shift(EDGE3, w, 1, 1, 6)
        with pytest.raises(ValidationError):
            audit_path_shift(EDGE3, 0, 1, 1, 0)  # d_max must be >= 1
        for d_max in (True, 6.0):
            with pytest.raises(ValidationError):
                audit_path_shift(EDGE3, 0, 1, 1, d_max)

    def test_edge_shift_holds_with_late_onset(self):
        report = audit_edge_shift(3, 1, 1, 1, 9)
        assert report.holds
        assert report.claimed_strict_onset == 6
        assert report.observed_strict_onset == 9

    def test_edge_shift_validation(self):
        with pytest.raises(ValidationError):
            audit_edge_shift(2, 1, 1, 1, 6)  # m must leave a free vertex
        with pytest.raises(ValidationError):
            audit_edge_shift(3, 2, 1, 1, 6)  # p capped at m - 2
        with pytest.raises(ValidationError):
            audit_edge_shift(3, 1, 1, 1, 6, branches=[EDGE3, EDGE3])
        with pytest.raises(ValidationError):
            audit_edge_shift(3, 1, 1, 1, 0)
        # 1.0 died with TypeError and True ran, reporting "p": true
        for p in (1.0, True, "1"):
            with pytest.raises(ValidationError):
                audit_edge_shift(3, p, 1, 1, 6)
        # a string m, r or s died with TypeError
        for m, r, s in (("3", 1, 1), (3, "2", "1"), (3, "2", 1), (3, 2, "1")):
            with pytest.raises(ValidationError):
                audit_edge_shift(m, 1, r, s, 6)

    def test_cored_shift_holds_with_late_onset(self):
        report = audit_cored_shift(3, 6)
        assert report.holds
        assert report.claimed_strict_onset == 3
        assert report.observed_strict_onset == 6

    def test_cored_shift_with_larger_operand(self):
        report = audit_cored_shift(3, 6, other=hyperpath(3, 2), other_vertex=0)
        assert report.holds
        assert report.observed_strict_onset is not None

    def test_cored_shift_validation(self):
        with pytest.raises(ValidationError):
            audit_cored_shift(3, 6, p=3)
        with pytest.raises(ValidationError):
            audit_cored_shift(1, 6)
        with pytest.raises(ValidationError):
            audit_cored_shift(3, 6, p=1, branches=[EDGE3, EDGE3])
        with pytest.raises(ValidationError):
            audit_cored_shift(3, 0)
        for p in (1.0, True, "1"):
            with pytest.raises(ValidationError):
                audit_cored_shift(3, 6, p)
        # a string m died with TypeError
        with pytest.raises(ValidationError):
            audit_cored_shift("3", 6)
        # True glued the other operand at its vertex 1
        for w in (True, 1.0, 0.5):
            with pytest.raises(ValidationError):
                audit_cored_shift(3, 6, other_vertex=w)
        with pytest.raises(VertexOutOfRange):
            audit_cored_shift(3, 6, other_vertex=3)
