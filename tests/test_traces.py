"""Trace values, conventions, vanishing laws, and the matrix oracle."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

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
    coalesce,
    enumerate_hypertrees,
    hyperpath,
    hyperstar,
    local_trace_profile,
    new_hypergraph,
    power,
    query,
    trace,
    trace_local,
    trace_m2_oracle,
    trace_table,
)

from hypertrace.euler import contribution, enumerate_rootings
from hypertrace.hypergraph import blocks, cut_vertices

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
        # orders must be plain integers: True is not order 1, 2.5 is no order
        h = hyperpath(3, 2)
        for bad in (True, False, 2.5, 3.0, "3"):
            with pytest.raises(ValidationError):
                trace(h, bad)
            with pytest.raises(ValidationError):
                trace_local(h, bad, query(required=[2]))
            with pytest.raises(ValidationError):
                trace_m2_oracle(hyperpath(2, 2), bad)

    def test_cost_budget_enforced(self):
        with pytest.raises(LimitExceeded):
            trace(hyperpath(3, 2), 5, Budget(cost_limit=9))
        # the block route keeps the whole-host cost check: 6 edges * 33 > 128
        with pytest.raises(LimitExceeded):
            trace(hyperstar(3, 6), 33)

    def test_values_are_exact_rationals(self):
        # Tr_d is a power sum of the roots of a monic integer polynomial
        # (Newton's identities), so every order is an integer even though
        # each rooting's weight is only an integer over d!
        hosts = [
            hyperpath(3, 2),
            new_hypergraph(2, 4, combinations(range(4), 2)),
            new_hypergraph(3, 5, combinations(range(5), 3)),
            new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]),
            power(TRIANGLE, 4),
            hyperstar(3, 3),
        ]
        for host in hosts:
            for d in range(1, 9):
                value = trace(host, d)
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
        # query entries must be plain integers, not coerced or compared late
        for bad in (
            dict(required=["a"]), dict(forbidden=[1.0]), dict(required=[True]),
            dict(pinned=(0, 1.5)), dict(pinned=("0", 1)), dict(pinned=(False, 1)),
            dict(pinned=(0, 1, 2)), dict(pinned=5),
        ):
            with pytest.raises(ValidationError):
                query(**bad)
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

    def test_order_must_be_an_integer(self):
        for bad in (True, 3.0, 2.5, -1):
            for qs in ((), (query(required=[0]),)):
                with pytest.raises(ValidationError):
                    trace_table(hyperpath(3, 2), bad, qs)


def enumerated_trace(h, d):
    """Tr_d straight from the definition: every rooting of the whole host."""
    if d == 0:
        return Fraction(h.n * (h.m - 1) ** (h.n - 1))
    return sum((contribution(mat, h.n) for mat in enumerate_rootings(h, d)), Fraction(0))


K3 = TRIANGLE
K4 = new_hypergraph(2, 4, combinations(range(4), 2))
C4 = new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
LOOSE_3_CYCLE = new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
K4_3 = new_hypergraph(3, 4, combinations(range(4), 3))
PIECES = {2: (K3, K4, C4, hyperpath(2, 1)), 3: (LOOSE_3_CYCLE, K4_3, hyperpath(3, 1))}


class TestBlockRoute:
    """Plain traces of hosts with several blocks come from per-block
    tables joined across cut vertices; the oracles are the whole-host
    enumeration and, for m=2, the matrix power."""

    def test_every_small_hypertree(self):
        for m, z_max in ((2, 5), (3, 4), (4, 3)):
            for z in range(2, z_max + 1):
                for h in enumerate_hypertrees(m, z):
                    assert len(blocks(h)) == z
                    # the table fills every order first, so the single
                    # orders after it reuse tables filled beyond them
                    table = trace_table(h, 3 * m)
                    for d in range(3 * m + 1):
                        want = enumerated_trace(h, d)
                        assert trace(h, d) == want
                        assert table.get(d) == want

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_glued_hosts(self, data):
        m = data.draw(st.sampled_from((2, 3)))
        h = data.draw(st.sampled_from(PIECES[m]))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            piece = data.draw(st.sampled_from(PIECES[m]))
            u = data.draw(st.integers(min_value=0, max_value=h.n - 1))
            v = data.draw(st.integers(min_value=0, max_value=piece.n - 1))
            h = coalesce(h, u, piece, v)
        assert 1 <= len(cut_vertices(h)) <= 2
        d = data.draw(st.integers(min_value=1, max_value=7))
        want = enumerated_trace(h, d)
        assert trace(h, d) == want
        assert trace_table(h, d).get(d) == want
        assert trace_local(h, d, query()) == want

    def test_disconnected_host(self):
        # a triangle, an isolated vertex and K4 with a pendant edge
        h = new_hypergraph(2, 9, list(K3.edges) + [
            tuple(v + 4 for v in e) for e in coalesce(K4, 0, hyperpath(2, 1), 0).edges
        ])
        assert len(blocks(h)) == 3
        table = trace_table(h, 7)
        for d in range(8):
            assert table.get(d) == trace(h, d) == enumerated_trace(h, d)

    def test_graphs_at_higher_order(self):
        budget = Budget(cost_limit=200)
        for h in (coalesce(K4, 0, K4, 0), coalesce(coalesce(C4, 0, K3, 0), 2, K4, 1)):
            for d in range(11):
                assert trace(h, d, budget) == trace_m2_oracle(h, d)


K5_3 = new_hypergraph(3, 5, combinations(range(5), 3))


class TestWarmMemo:
    """Every query on a host reads one memoized rooting table per order;
    a table left by earlier calls must change no later answer."""

    @staticmethod
    def weighed_rootings(h, d, cache):
        """(root counts, weight) of every order-d rooting of h, straight
        from the enumerator."""
        if d not in cache:
            cache[d] = [(mat.root_counts, contribution(mat, h.n))
                        for mat in enumerate_rootings(h, d)]
        return cache[d]

    @staticmethod
    def keeps(q, roots):
        return (all(roots.get(v, 0) for v in q.required)
                and not any(roots.get(v, 0) for v in q.forbidden)
                and (q.pinned is None or roots.get(q.pinned[0], 0) == q.pinned[1]))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_interleaved_calls_match_fresh_hosts_and_enumeration(self, data):
        h = data.draw(st.sampled_from(
            connected_graph_classes(4) + (K4, LOOSE_3_CYCLE, K5_3)
        ))
        d_top = 4 if h.edge_count > 6 else 6
        vertex = st.integers(min_value=0, max_value=h.n - 1)
        orders = st.integers(min_value=1, max_value=d_top)
        u, v = data.draw(vertex), data.draw(vertex)
        cache = {}

        def oracle(d, q):
            rootings = self.weighed_rootings(h, d, cache)
            return sum((w for roots, w in rootings if self.keeps(q, roots)), Fraction(0))

        def draw_query(d):
            kind = data.draw(st.sampled_from(("required", "forbidden", "pinned")))
            if kind == "pinned":
                return query(pinned=(data.draw(vertex), data.draw(st.integers(1, d))))
            return query(**{kind: [data.draw(vertex)]})

        for _ in range(data.draw(st.integers(min_value=3, max_value=7))):
            fresh = new_hypergraph(h.m, h.n, h.edges)
            call = data.draw(st.sampled_from(("trace", "table", "local", "profile")))
            d = data.draw(orders)
            if call == "trace":
                got = trace(h, d)
                assert got == trace(fresh, d) == oracle(d, query())
            elif call == "table":
                qs = (draw_query(d), draw_query(d))
                got = trace_table(h, d, qs)
                assert got.entries == trace_table(fresh, d, qs).entries
                for e in range(1, d + 1):
                    assert got.get(e) == oracle(e, query())
                    for q in qs:
                        assert got.get(e, q) == oracle(e, q)
            elif call == "local":
                q = draw_query(d)
                got = trace_local(h, d, q)
                assert got == trace_local(fresh, d, q) == oracle(d, q)
            else:
                for anchor in (u, v):
                    got = local_trace_profile(h, anchor, d)
                    assert got.entries == local_trace_profile(fresh, anchor, d).entries
                    want = {(0, 0): Fraction((h.m - 1) ** (h.n - 1))}
                    for e in range(1, d + 1):
                        for t in range(1, e + 1):
                            value = oracle(e, query(pinned=(anchor, t)))
                            if value:
                                want[e, t] = value
                    assert got.entries == want
