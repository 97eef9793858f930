"""Trace values, conventions, vanishing laws, and the matrix oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrace import (
    Budget,
    InfeasibleQuery,
    LimitExceeded,
    NotAGraph,
    ValidationError,
    VertexOutOfRange,
    enumerate_hypertrees,
    hyperpath,
    hyperstar,
    new_hypergraph,
    query,
    trace,
    trace_local,
    trace_m2_oracle,
    trace_table,
)

from conftest import connected_graph_classes

TRIANGLE = new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])


class TestPlainTrace:
    def test_order_zero_counts_eigenvalues(self):
        # Tr_0 equals the eigenvalue count n*(m-1)^(n-1)
        assert trace(hyperpath(3, 1), 0) == 3 * 2**2
        assert trace(hyperpath(2, 2), 0) == 3
        assert trace(hyperstar(4, 2), 0) == 7 * 3**6

    def test_single_edge_values(self):
        e = hyperpath(3, 1)
        assert trace(e, 3) == 9
        assert trace(e, 6) == 9
        assert trace(e, 9) == 9

    def test_two_edge_path_values(self):
        h = hyperpath(3, 2)
        assert trace(h, 3) == 72
        assert trace(h, 6) == 126
        assert trace(h, 9) == 234

    def test_triangle_values(self):
        for d, want in [(0, 3), (1, 0), (2, 6), (3, 6), (4, 18)]:
            assert trace(TRIANGLE, d) == want

    def test_two_vertex_graph_matches_eigenvalues(self):
        # K2 has eigenvalues +1 and -1
        k2 = hyperpath(2, 1)
        for d in range(0, 9):
            assert trace(k2, d) == (2 if d % 2 == 0 else 0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            trace(hyperpath(3, 1), -1)

    def test_cost_budget_enforced(self):
        with pytest.raises(LimitExceeded):
            trace(hyperpath(3, 2), 5, Budget(cost_limit=9))

    def test_values_are_exact_rationals(self):
        value = trace(hyperpath(3, 2), 6)
        assert isinstance(value, Fraction)
        assert value.denominator == 1


class TestVanishing:
    @pytest.mark.parametrize("host", [hyperpath(3, 2), hyperstar(3, 3), hyperpath(4, 2)])
    def test_low_orders_vanish(self, host):
        for d in range(1, host.m):
            assert trace(host, d) == 0

    def test_hypertree_orders_off_the_uniformity_grid_vanish(self):
        for z in (1, 2, 3):
            for h in enumerate_hypertrees(3, z):
                for d in range(1, 13):
                    if d % 3:
                        assert trace(h, d) == 0

    def test_non_hypertree_does_not_vanish_off_grid(self):
        # the triangle carries weight at d=2 with m=2... pick m=2 cycle
        assert trace(TRIANGLE, 3) != 0


class TestCodegreeIdentity:
    @pytest.mark.parametrize(
        "host",
        [
            hyperpath(2, 1), hyperpath(2, 2), hyperpath(2, 4),
            hyperstar(2, 3), hyperstar(2, 4),
            hyperpath(3, 1), hyperpath(3, 2), hyperpath(3, 3),
            hyperstar(3, 2), hyperstar(3, 3),
            hyperpath(4, 1), hyperpath(4, 2), hyperpath(4, 3),
            hyperstar(4, 2), hyperstar(4, 3),
        ],
    )
    def test_order_m_trace_counts_edges(self, host):
        m, n, z = host.m, host.n, host.edge_count
        assert trace(host, m) == m ** (m - 1) * (m - 1) ** (n - m) * z


class TestMatrixOracle:
    def test_oracle_rejects_non_graphs(self):
        with pytest.raises(NotAGraph):
            trace_m2_oracle(hyperpath(3, 1), 2)

    def test_oracle_on_closed_forms(self):
        # path on 3 vertices has eigenvalues ±sqrt(2), 0
        p2 = hyperpath(2, 2)
        assert trace_m2_oracle(p2, 2) == 4
        assert trace_m2_oracle(p2, 4) == 8
        assert trace_m2_oracle(p2, 6) == 16
        # 4-cycle: eigenvalues ±2, 0, 0
        c4 = new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert trace_m2_oracle(c4, 2) == 8
        assert trace_m2_oracle(c4, 3) == 0
        assert trace_m2_oracle(c4, 4) == 32

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(min_value=0, max_value=8))
    def test_engine_agrees_with_oracle(self, data, d):
        h = data.draw(st.sampled_from(connected_graph_classes(4)))
        assert trace(h, d) == trace_m2_oracle(h, d)


class TestLocalTrace:
    def test_queries_partition_the_trace(self):
        h = hyperpath(3, 2)
        for d in (3, 6, 9):
            full = trace(h, d)
            with_cut = trace_local(h, d, query(required=[2]))
            without_cut = trace_local(h, d, query(forbidden=[2]))
            assert with_cut + without_cut == full

    def test_pinned_splits_the_required_trace(self):
        h = hyperstar(3, 3)
        d = 6
        required = trace_local(h, d, query(required=[0]))
        pinned_sum = sum(
            trace_local(h, d, query(pinned=(0, t))) for t in range(1, d + 1)
        )
        assert pinned_sum == required

    def test_forbidden_cuts_to_subhost(self):
        # forbidding the cut vertex of a two-edge path kills every rooting
        h = hyperpath(3, 2)
        assert trace_local(h, 3, query(forbidden=[2])) == 0
        # forbidding a leaf block keeps the other edge, rescaled to the
        # full ambient vertex count
        e = hyperpath(3, 1)
        expected = trace(e, 3) * Fraction(2) ** (h.n - e.n)
        assert trace_local(h, 3, query(forbidden=[3])) == expected

    def test_order_zero_conventions(self):
        h = hyperpath(3, 2)
        assert trace_local(h, 0, query(forbidden=[0])) == Fraction(2 ** (h.n - 1))
        with pytest.raises(InfeasibleQuery):
            trace_local(h, 0, query(required=[0]))
        with pytest.raises(InfeasibleQuery):
            trace_local(h, 0, query(pinned=(0, 1)))

    def test_query_validation(self):
        with pytest.raises(ValidationError):
            query(required=[0], forbidden=[0])
        with pytest.raises(ValidationError):
            query(pinned=(0, 0))
        with pytest.raises(ValidationError):
            query(pinned=(0, 1), forbidden=[0])
        # query vertices are checked against the host at every order
        h = hyperpath(3, 2)
        for q in (query(forbidden=[99]), query(required=[5]), query(pinned=(-1, 1))):
            for d in (0, 3):
                with pytest.raises(VertexOutOfRange):
                    trace_local(h, d, q)
            for d_max in (0, 3):
                with pytest.raises(VertexOutOfRange):
                    trace_table(h, d_max, (query(), q))

    def test_empty_query_equals_plain_trace(self):
        h = TRIANGLE
        q = query()
        assert q.is_empty
        for d in (2, 3, 4):
            assert trace_local(h, d, q) == trace(h, d)


class TestTraceTable:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_table_matches_pointwise_calls(self, data):
        # one rooting may match several queries or none, and a query may
        # repeat; every entry must still equal its own pointwise call
        h = data.draw(st.sampled_from(
            (hyperpath(3, 2), hyperstar(3, 2)) + connected_graph_classes(4)
        ))
        v = data.draw(st.integers(min_value=0, max_value=h.n - 1))
        w = data.draw(st.integers(min_value=0, max_value=h.n - 1))
        t = data.draw(st.integers(min_value=1, max_value=3))
        qs = (query(required=[v]), query(pinned=(v, t)), query(forbidden=[w]),
              query(required=[v]))
        table = trace_table(h, 6, qs)
        for d in range(0, 7):
            assert table.get(d) == trace(h, d)
            for q in qs:
                if d == 0 and q.constrains_positively:
                    assert table.get(0, q) == 0
                elif q.pinned is not None and q.pinned[1] > d:
                    assert table.get(d, q) == 0
                else:
                    assert table.get(d, q) == trace_local(h, d, q)

    def test_unknown_key_rejected(self):
        table = trace_table(hyperpath(3, 1), 3)
        with pytest.raises(ValidationError):
            table.get(4)
        with pytest.raises(ValidationError):
            table.get(3, query(required=[0]))

    def test_budget_checked_at_maximum_order(self):
        with pytest.raises(LimitExceeded):
            trace_table(hyperpath(3, 2), 10, (), Budget(cost_limit=19))
