"""Trace values, conventions, vanishing laws, and the matrix oracle."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrace import (
    Budget,
    audit_path_shift,
    InfeasibleQuery,
    LimitExceeded,
    LocalTraceQuery,
    NotAGraph,
    ValidationError,
    VertexOutOfRange,
    coalesce,
    enumerate_hypertrees,
    estrada_index,
    extremal_scan,
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

import hypertrace.traces as traces_module
from hypertrace.estrada import fraction_str
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

    def test_pinned_count_above_the_order_is_zero(self):
        # no rooting roots a vertex more often than the order, so every
        # entry point returns an exact 0 for such a pin, as for any other
        # unsatisfiable one
        h = hyperpath(3, 2)
        for q in (query(pinned=(0, 5)), query(pinned=(0, 4)), query(pinned=(0, 2))):
            assert trace_local(h, 3, q) == 0
            assert trace_table(h, 3, (q,)).get(3, q) == 0

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
            dict(pinned=(0, 1, 2)), dict(pinned=5), dict(required=5), dict(forbidden=1),
        ):
            with pytest.raises(ValidationError):
                query(**bad)
            with pytest.raises(ValidationError):
                LocalTraceQuery(**bad)
        # a query that is not a LocalTraceQuery died with AttributeError
        k4 = new_hypergraph(2, 4, combinations(range(4), 2))
        for bad in (None, (0, 1), {"required": [0]}):
            with pytest.raises(ValidationError):
                trace_local(k4, 3, bad)
            with pytest.raises(ValidationError):
                trace_table(k4, 3, [bad])
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
                else:
                    assert table.get(d, q) == trace_local(h, d, q)

    def test_unknown_key_rejected(self):
        table = trace_table(hyperpath(3, 1), 3)
        with pytest.raises(ValidationError):
            table.get(4)
        with pytest.raises(ValidationError):
            table.get(3, query(required=[0]))
        # orders are plain integers, as in every other entry point
        table = trace_table(hyperpath(3, 2), 3)
        for bad in (True, False, 2.0, 2.5, "2", -1):
            with pytest.raises(ValidationError, match="order"):
                table.get(bad)

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
HYPERTREES = tuple(
    h for m, z_max in ((2, 5), (3, 4)) for z in range(2, z_max + 1)
    for h in enumerate_hypertrees(m, z)
)


def draw_glued(data):
    """A host of 1-2 random coalesce steps over PIECES, m = 2 or 3."""
    m = data.draw(st.sampled_from((2, 3)))
    h = data.draw(st.sampled_from(PIECES[m]))
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        piece = data.draw(st.sampled_from(PIECES[m]))
        u = data.draw(st.integers(min_value=0, max_value=h.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=piece.n - 1))
        h = coalesce(h, u, piece, v)
    return h


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
        h = draw_glued(data)
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

    def test_an_interrupted_extension_is_dropped(self, monkeypatch):
        h = hyperstar(3, 3)
        assert trace(h, 6) == enumerated_trace(h, 6)
        mass, calls = traces_module._mass, []

        def failing(*args):
            calls.append(args)
            if len(calls) > 3:
                raise RuntimeError("interrupted")
            return mass(*args)

        monkeypatch.setattr(traces_module, "_mass", failing)
        with pytest.raises(RuntimeError):
            trace(h, 12)
        monkeypatch.undo()
        assert trace(h, 12) == enumerated_trace(h, 12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_call_order_matches_fresh_hosts_and_enumeration(self, data):
        # the DP state stays with the host and is extended one order at a
        # time, so no order of calls on a warm host may change an answer
        if data.draw(st.booleans()):
            h = data.draw(st.sampled_from(HYPERTREES))
            d_top = 4 * h.m
        else:
            h = draw_glued(data)
            d_top = 6
        assert len(blocks(h)) > 1
        orders = data.draw(st.lists(st.integers(min_value=1, max_value=d_top),
                                    min_size=2, max_size=6))
        shape = data.draw(st.sampled_from(("ascending", "descending", "as drawn")))
        if shape != "as drawn":
            orders.sort(reverse=shape == "descending")
        orders.append(orders[0])  # an order asked for again
        enumerated = {}

        def oracle(d):
            if d not in enumerated:
                enumerated[d] = enumerated_trace(h, d)
            return enumerated[d]

        for d in orders:
            fresh = new_hypergraph(h.m, h.n, h.edges)
            if data.draw(st.booleans()):
                assert trace(h, d) == trace(fresh, d) == oracle(d)
            else:
                table = trace_table(h, d)
                assert table.entries == trace_table(fresh, d).entries
                for e in range(d + 1):
                    assert table.get(e) == oracle(e)


K5_3 = new_hypergraph(3, 5, combinations(range(5), 3))


class TestWarmMemo:
    """Every query on a host reads the block tables and forests kept
    with it; state left by earlier calls must change no later answer."""

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

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_interleaved_calls_match_fresh_hosts_and_enumeration(self, data):
        # localized values are signed sums over sub-hosts kept with h, on
        # the forest wherever deleting edges leaves cut vertices
        if data.draw(st.booleans()):
            h = draw_glued(data)
        else:
            h = data.draw(st.sampled_from(
                connected_graph_classes(4) + (K4, LOOSE_3_CYCLE, K5_3)
                + tuple(g for g in HYPERTREES if g.m == 3)
            ))
        d_top = 4 if h.edge_count > 6 else 6
        vertex = st.integers(min_value=0, max_value=h.n - 1)
        orders = st.integers(min_value=1, max_value=d_top)
        u, v = data.draw(vertex), data.draw(vertex)
        kinds = ("required", "forbidden", "pinned")
        if h.n > 1:
            kinds += ("two required", "required and forbidden", "required and pinned")
        cache = {}

        def oracle(d, q):
            rootings = self.weighed_rootings(h, d, cache)
            return sum((w for roots, w in rootings if self.keeps(q, roots)), Fraction(0))

        def draw_query(d):
            kind = data.draw(st.sampled_from(kinds))
            a, b = data.draw(st.permutations(range(h.n)))[:2] if h.n > 1 else (0, 0)
            pin = (data.draw(st.sampled_from((a, b))), data.draw(st.integers(1, d + 1)))
            return {
                "required": lambda: query(required=[a]),
                "forbidden": lambda: query(forbidden=[a]),
                "pinned": lambda: query(pinned=pin),
                "two required": lambda: query(required=[a, b]),
                "required and forbidden": lambda: query(required=[a], forbidden=[b]),
                "required and pinned": lambda: query(required=[a], pinned=pin),
            }[kind]()

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

    def test_one_store_one_forest_per_anchor_and_one_sub_host_per_edge_set(self):
        # h keeps one store of block tables, one forest per anchor (None
        # for plain values) and no table keyed by an order; a localized
        # value keeps one sub-host per set of edges it keeps, h less the
        # edges meeting the vertices it forbids on h's n vertices, and a
        # pinned one keeps nothing else
        h = new_hypergraph(3, 7, LOOSE_3_CYCLE.edges)  # vertex 6 is isolated
        trace_table(h, 4, (query(required=[0]), query(pinned=(1, 1))))
        local_trace_profile(h, 2, 4)
        forest = traces_module._BlockForest
        own = {traces_module._STORE, (forest, None), (forest, 2)}

        def less(*vs):
            return tuple(e for e in h.edges if set(vs).isdisjoint(e))

        assert set(h.memo) == own | {less(0)}
        sub = h.memo[less(0)]
        assert (sub.n, sub.edges) == (7, ((2, 3, 4),))
        # forbidding 0 and 5 deletes the same edges as forbidding 0, and
        # forbidding the isolated vertex deletes none
        for q in (query(required=[0]), query(forbidden=[1]), query(pinned=(2, 2)),
                  query(required=[3], forbidden=[0]), query(pinned=(2, 1), forbidden=[1]),
                  query(forbidden=[0, 5]), query(forbidden=[6]), query(required=[6]),
                  query()):
            trace_local(h, 4, q)
        assert h.memo[less(0)] is sub
        kept = {less(0), less(1), less(0, 3)}
        assert set(h.memo) == own | kept
        # a profile at the isolated vertex is its order-zero entry alone
        assert local_trace_profile(h, 6, 4).entries == {(0, 0): Fraction(2 ** 6)}
        assert set(h.memo) == own | kept | {(forest, 6)}
        store = h.memo[traces_module._STORE]
        for edges in kept:
            g = h.memo[edges]
            assert (g.n, g.edges) == (h.n, edges)
            assert g.memo[traces_module._STORE] is store

    def test_more_required_vertices_than_the_order_is_zero(self):
        # the root counts sum to d, so a query requiring more than d
        # vertices, or pinning more roots than the order leaves, is 0
        # without visiting its 2^|R| subsets or building a sub-host
        h = hyperpath(3, 20)
        assert trace_local(h, 6, query(required=range(30))) == 0
        assert trace_local(h, 6, query(required=range(3), pinned=(10, 4))) == 0
        assert trace_local(h, 6, query(required=range(4), pinned=(0, 4))) == 0
        assert set(h.memo) == set()
        # demanding exactly d roots is not pruned
        q = query(required=range(3))
        want = sum((contribution(mat, h.n) for mat in enumerate_rootings(h, 3)
                    if q.matches(mat.root_counts)), Fraction(0))
        assert trace_local(h, 3, q) == want != 0


@contextmanager
def counted_enumeration():
    """Record (host, keyed vertices, order) of every rooting table the
    trace routes enumerate while the context is open."""
    calls = []
    enumerate_table = traces_module._enumerate_table

    def counted(h, d, keyed, pinned=None):
        calls.append((h, tuple(keyed), d))
        return enumerate_table(h, d, keyed, pinned)

    traces_module._enumerate_table = counted
    try:
        yield calls
    finally:
        traces_module._enumerate_table = enumerate_table


class TestSharedBlockTables:
    """A block's table is keyed by the relabeled block, its number of
    keyed vertices and the order, so equal blocks, of one host or of
    hosts computed together, are enumerated once per order."""

    def test_equal_edges_of_a_star_make_one_call_per_order(self):
        h = hyperstar(3, 4)
        with counted_enumeration() as calls:
            assert trace(h, 12) == 91080
        assert [d for _, _, d in calls] == list(range(1, 13))

    def test_a_chain_of_three_k4_makes_two_calls_per_order(self):
        # the two end blocks have one keyed vertex, the middle one two
        h = coalesce(coalesce(K4, 0, K4, 0), 5, K4, 0)
        assert len(blocks(h)) == 3
        with counted_enumeration() as calls:
            got = trace(h, 6)
        assert got == trace_m2_oracle(h, 6)
        assert sorted((keyed, d) for _, keyed, d in calls) == sorted(
            (keyed, d) for keyed in ((0,), (0, 1)) for d in range(1, 7)
        )

    def test_the_hosts_of_an_audit_enumerate_their_k4_once_per_order(self):
        with counted_enumeration() as calls:
            report = audit_path_shift(K4, 0, 2, 1, 6)
        assert [d for h, _, d in calls if h.edge_count == 6] == list(range(1, 7))
        assert len(set(calls)) == len(calls)
        larger = coalesce(coalesce(K4, 0, hyperpath(2, 2), 0), 0, hyperpath(2, 1), 0)
        smaller = coalesce(K4, 0, hyperpath(2, 3), 0)
        for row in report.rows:
            assert row.left == trace_m2_oracle(larger, row.d)
            assert row.right == trace_m2_oracle(smaller, row.d)

    def test_a_scan_matches_brackets_of_fresh_hosts(self):
        tol, budget = Fraction(1, 1000), Budget(cost_limit=1000)
        with counted_enumeration() as calls:
            report = extremal_scan(2, 6, tol, budget)
        assert len(set(calls)) == len(calls)
        classes = report.to_json_dict()["classes"]
        assert len(classes) == len(report.entries) == 11
        for entry, row in zip(report.entries, classes):
            h = entry.hypergraph
            fresh = estrada_index(new_hypergraph(h.m, h.n, h.edges), tol, budget)
            assert (row["lower"], row["upper"]) == (
                fraction_str(fresh.lower), fraction_str(fresh.upper))
            assert entry.estimate.depth == fresh.depth

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_linked_glued_hosts_match_enumeration(self, data):
        hosts = [draw_glued(data) for _ in range(2)]
        d = data.draw(st.integers(min_value=1, max_value=7))
        traces_module._share_blocks(hosts)
        with counted_enumeration() as calls:
            got = [trace(h, d) for h in hosts]
        assert len(set(calls)) == len(calls)
        assert got == [enumerated_trace(h, d) for h in hosts]

    @pytest.mark.parametrize("name, after", (
        ("_mass", 0), ("_mass", 2), ("_mass", 12), ("contribution_parts", 0),
    ))
    def test_an_interrupted_extension_leaves_linked_hosts_exact(
        self, monkeypatch, name, after
    ):
        # tables enter the shared store only once complete, so the host
        # whose forest is dropped and the host still reading the store
        # both go on with exact values, also after an enumeration cut short
        hosts = (hyperstar(3, 3), hyperpath(3, 3))
        traces_module._share_blocks(hosts)
        for h in hosts:
            trace(h, 6)
        inner, calls = getattr(traces_module, name), []

        def failing(*args):
            calls.append(args)
            if len(calls) > after:
                raise RuntimeError("interrupted")
            return inner(*args)

        monkeypatch.setattr(traces_module, name, failing)
        with pytest.raises(RuntimeError):
            trace(hosts[0], 12)
        monkeypatch.undo()
        for h in reversed(hosts):
            fresh = new_hypergraph(h.m, h.n, h.edges)
            for d in (9, 12):
                assert trace(h, d) == trace(fresh, d)


def enumerated_profile(h, anchor, d_max):
    """The nonzero Tr_{d;t} at the anchor straight from the definition:
    every rooting of the whole host, matched by a pinned query."""
    entries = {}
    for d in range(1, d_max + 1):
        for t in range(1, d + 1):
            q = query(pinned=(anchor, t))
            value = sum((contribution(mat, h.n) for mat in enumerate_rootings(h, d)
                         if q.matches(mat.root_counts)), Fraction(0))
            if value:
                entries[d, t] = value
    return entries


class TestAnchoredForest:
    """A profile is read from the host's block forest rooted at the
    anchor: every block through the anchor hangs from it, and the
    anchor's terms per root count are the profile's entries."""

    def test_profiles_at_every_anchor_match_enumeration(self):
        hosts = (
            (coalesce(K4, 0, K4, 0), 6),  # anchor 0 is the cut vertex
            (coalesce(LOOSE_3_CYCLE, 3, hyperpath(3, 1), 0), 9),
            (new_hypergraph(2, 6, list(K3.edges) + [(4, 5)]), 6),  # vertex 3 is isolated
            (hyperstar(3, 3), 9),
        )
        for h, d_max in hosts:
            for anchor in range(h.n):
                got = local_trace_profile(h, anchor, d_max).entries
                want = enumerated_profile(h, anchor, d_max)
                assert got == {**want, (0, 0): Fraction((h.m - 1) ** (h.n - 1))}

    def test_profiles_of_k4_at_two_anchors_enumerate_it_once_per_order(self):
        h = new_hypergraph(2, 4, K4.edges)
        with counted_enumeration() as calls:
            p0, p3 = (local_trace_profile(h, anchor, 8) for anchor in (0, 3))
        assert [(keyed, d) for _, keyed, d in calls] == [((0,), d) for d in range(1, 9)]
        assert p0.entries == p3.entries
        assert p0.entries == {**enumerated_profile(h, 0, 8), (0, 0): 1}

    def test_a_fresh_one_block_trace_enumerates_its_order_only(self):
        for h, d in ((new_hypergraph(2, 5, combinations(range(5), 2)), 7),
                     (new_hypergraph(3, 5, K5_3.edges), 5)):
            with counted_enumeration() as calls:
                assert trace(h, d) == enumerated_trace(h, d)
                assert trace(h, d - 2) == enumerated_trace(h, d - 2)
                assert trace(h, d) == enumerated_trace(h, d)
            assert [(keyed, e) for _, keyed, e in calls] == [((), d), ((), d - 2)]

    @pytest.mark.parametrize("after", (0, 3, 40))
    def test_an_interrupted_profile_is_dropped(self, monkeypatch, after):
        h = coalesce(K4, 0, hyperpath(2, 2), 0)
        anchor = 1
        assert local_trace_profile(h, anchor, 4).entries == {
            **enumerated_profile(h, anchor, 4), (0, 0): 1}
        mass, calls = traces_module._mass, []

        def failing(*args):
            calls.append(args)
            if len(calls) > after:
                raise RuntimeError("interrupted")
            return mass(*args)

        monkeypatch.setattr(traces_module, "_mass", failing)
        with pytest.raises(RuntimeError):
            local_trace_profile(h, anchor, 8)
        assert (traces_module._BlockForest, anchor) not in h.memo
        monkeypatch.undo()
        assert local_trace_profile(h, anchor, 8).entries == {
            **enumerated_profile(h, anchor, 8), (0, 0): 1}
