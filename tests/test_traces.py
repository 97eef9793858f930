"""Trace values, conventions, vanishing laws, and the matrix oracle."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import factorial

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
    estrada_index_m2_oracle,
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

import hypertrace._symmetry as symmetry_module
import hypertrace.traces as traces_module
from hypertrace.estrada import fraction_str
from hypertrace._symmetry import _Group, _Orbits
from hypertrace.euler import contribution, enumerate_rootings
from hypertrace.hypergraph import _labeling, block_tree

from conftest import (
    ORBIT_ORDERS,
    SYMMETRIC_HOSTS,
    WEAK_GENERATOR_HOSTS,
    brute_force_automorphisms,
    closure,
    complete,
    connected_graph_classes,
    dense_hosts,
    group_order,
    matches,
    morozov_shakirov_trace,
    relabelings,
    unpaired_table,
)

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

    def test_budget_fields_are_positive_integers(self):
        # "x" died with TypeError inside trace; -5 and 2.5 were accepted
        with pytest.raises(ValidationError):
            trace(hyperpath(3, 2), 2, Budget(cost_limit="x"))
        for field in ("cost_limit", "arc_limit", "tree_edge_limit", "canon_vertex_limit"):
            for bad in (0, -5, 2.5, "x", True, None):
                with pytest.raises(ValidationError):
                    Budget(**{field: bad})
            assert getattr(Budget(**{field: 1}), field) == 1

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
        # nor is a vertex on no edge ever rooted
        g, q = new_hypergraph(3, 4, [(0, 1, 2)]), query(pinned=(3, 1))
        assert trace_local(g, 3, q) == trace_table(g, 3, (q,)).get(3, q) == 0

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
            dict(pinned=(True, 1)), dict(pinned=(1, True)), dict(pinned=(1.0, 2)),
            dict(pinned=(0, 1, 2)), dict(pinned=(1,)), dict(pinned=5), dict(pinned="12"),
            dict(pinned=(0, -1)), dict(required=5), dict(forbidden=1),
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
        for q in (query(forbidden=[99]), query(required=[5]), query(pinned=(-1, 1)),
                  query(pinned=(9, 1)), query(pinned=(9, 5))):
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
                    assert len(block_tree(h)) == z
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
        assert len(block_tree(h)) >= 2
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
        assert len(block_tree(h)) == 3
        table = trace_table(h, 7)
        for d in range(8):
            assert table.get(d) == trace(h, d) == enumerated_trace(h, d)

    def test_graphs_at_higher_order(self):
        budget = Budget(cost_limit=200)
        for h in (coalesce(K4, 0, K4, 0), coalesce(coalesce(C4, 0, K3, 0), 2, K4, 1)):
            for d in range(11):
                assert trace(h, d, budget) == trace_m2_oracle(h, d)

    def test_an_interrupted_extension_is_dropped(self, monkeypatch):
        # the star's forest hangs from its centre 0, its first vertex on
        # an edge, which it joins once at each of masses 9 and 12; the
        # second join fails with the blocks at mass 12 extended
        h = hyperstar(3, 3)
        assert trace(h, 6) == enumerated_trace(h, 6)
        assert (traces_module._BlockForest, 0) in h.memo
        join, calls = traces_module._BlockForest._join, []

        def failing(*args):
            calls.append(args)
            if len(calls) > 1:
                raise RuntimeError("interrupted")
            return join(*args)

        monkeypatch.setattr(traces_module._BlockForest, "_join", failing)
        with pytest.raises(RuntimeError):
            trace(h, 12)
        assert (traces_module._BlockForest, 0) not in h.memo
        monkeypatch.undo()
        assert trace(h, 12) == enumerated_trace(h, 12)

    def test_an_interrupted_plain_extension_drops_the_forest_a_profile_shares(
        self, monkeypatch
    ):
        # a plain trace reads the forest rooted at vertex 0, the cut
        # vertex, which the profile at 0 has built to order 4; a join cut
        # short in the plain extension to order 8 drops it for both
        h = coalesce(K4, 0, hyperpath(2, 2), 0)
        assert local_trace_profile(h, 0, 4).entries == {**enumerated_profile(h, 0, 4), (0, 0): 1}
        assert forests(h) == [0]
        join, calls = traces_module._BlockForest._join, []

        def failing(*args):
            calls.append(args)
            if len(calls) > 2:
                raise RuntimeError("interrupted")
            return join(*args)

        monkeypatch.setattr(traces_module._BlockForest, "_join", failing)
        with pytest.raises(RuntimeError):
            trace(h, 8)
        assert not [key for key in h.memo if key[0] is traces_module._BlockForest]
        monkeypatch.undo()
        assert local_trace_profile(h, 0, 8).entries == {**enumerated_profile(h, 0, 8), (0, 0): 1}
        assert trace(h, 8) == trace_m2_oracle(h, 8)

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
        assert len(block_tree(h)) > 1
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

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_interleaved_calls_match_fresh_hosts_and_enumeration(self, data):
        # localized values are signed sums over sub-hosts kept with h, on
        # the forest wherever deleting edges leaves cut vertices; a pin
        # with a forbidden cut vertex reads a forest of several components
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
            kinds += ("two required", "required and forbidden", "required and pinned",
                      "forbidden and pinned")
        cache = {}

        def oracle(d, q):
            rootings = self.weighed_rootings(h, d, cache)
            return sum((w for roots, w in rootings if matches(q, roots)), Fraction(0))

        def draw_query(d):
            kind = data.draw(st.sampled_from(kinds))
            a, b = data.draw(st.permutations(range(h.n)))[:2] if h.n > 1 else (0, 0)
            t = data.draw(st.integers(1, d + 1))
            pin = (data.draw(st.sampled_from((a, b))), t)
            return {
                "required": lambda: query(required=[a]),
                "forbidden": lambda: query(forbidden=[a]),
                "pinned": lambda: query(pinned=pin),
                "two required": lambda: query(required=[a, b]),
                "required and forbidden": lambda: query(required=[a], forbidden=[b]),
                "required and pinned": lambda: query(required=[a], pinned=pin),
                "forbidden and pinned": lambda: query(forbidden=[b], pinned=(a, t)),
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
        # h keeps one store of block tables, one forest per anchor (its
        # first vertex on an edge, 0, for plain values, the pinned vertex
        # for pinned ones) and no table keyed by an order; a localized
        # value keeps one sub-host per set of edges it keeps, h less the
        # edges meeting the vertices it forbids on h's n vertices
        h = new_hypergraph(3, 7, LOOSE_3_CYCLE.edges)  # vertex 6 is isolated
        trace_table(h, 4, (query(required=[0]), query(pinned=(1, 1))))
        local_trace_profile(h, 2, 4)
        forest = traces_module._BlockForest
        own = {traces_module._STORE, (forest, 0), (forest, 1), (forest, 2)}

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
                    if matches(q, mat.root_counts)), Fraction(0))
        assert trace_local(h, 3, q) == want != 0


@contextmanager
def counted_enumeration():
    """Record (host, order) of every rooting table the trace routes
    enumerate while the context is open."""
    calls = []
    enumerate_table = traces_module._enumerate_table

    def counted(h, d, *args, **kwargs):
        calls.append((h, d))
        return enumerate_table(h, d, *args, **kwargs)

    traces_module._enumerate_table = counted
    try:
        yield calls
    finally:
        traces_module._enumerate_table = enumerate_table


class TestSharedBlockTables:
    """A block's table is keyed by the relabeled block and the order, so
    equal blocks, of one host or of hosts computed together, are
    enumerated at most once per order whatever vertices they key."""

    def test_equal_edges_of_a_star_make_one_call_per_multiple_of_m(self):
        # a single edge has rootings only at multiples of m
        h = hyperstar(3, 4)
        with counted_enumeration() as calls:
            assert trace(h, 12) == 91080
        assert [d for _, d in calls] == [3, 6, 9, 12]

    def test_a_chain_of_three_k4_makes_one_call_per_order(self):
        # the two end blocks have one keyed vertex, the middle one two
        h = coalesce(coalesce(K4, 0, K4, 0), 5, K4, 0)
        assert len(block_tree(h)) == 3
        with counted_enumeration() as calls:
            got = trace(h, 6)
        assert got == trace_m2_oracle(h, 6)
        assert [d for _, d in calls] == list(range(1, 7))

    def test_a_hyperpath_makes_one_call_per_multiple_of_m(self):
        # the end edges key one vertex, the middle edges two
        h = hyperpath(3, 5)
        with counted_enumeration() as calls:
            got = trace(h, 15)
        assert got == enumerated_trace(h, 15)
        assert [d for _, d in calls] == [3, 6, 9, 12, 15]

    def test_the_hosts_of_an_audit_enumerate_their_k4_once_per_order(self):
        with counted_enumeration() as calls:
            report = audit_path_shift(K4, 0, 2, 1, 6)
        assert [d for h, d in calls if h.edge_count == 6] == list(range(1, 7))
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
        ("_join", 0), ("_join", 2), ("_join", 3), ("contribution_parts", 0),
    ))
    def test_an_interrupted_extension_leaves_linked_hosts_exact(
        self, monkeypatch, name, after
    ):
        # tables enter the shared store only once complete, so the host
        # whose forest is dropped and the host still reading the store
        # both go on with exact values, also after an enumeration cut short;
        # the star's forest joins its centre once at each of masses 9, 12,
        # 15 and 18, and is cut at the first, third and fourth join
        hosts = (hyperstar(3, 3), hyperpath(3, 3))
        traces_module._share_blocks(hosts)
        for h in hosts:
            trace(h, 6)
        owner = traces_module._BlockForest if name == "_join" else traces_module
        inner, calls = getattr(owner, name), []

        def failing(*args):
            calls.append(args)
            if len(calls) > after:
                raise RuntimeError("interrupted")
            return inner(*args)

        monkeypatch.setattr(owner, name, failing)
        with pytest.raises(RuntimeError):
            trace(hosts[0], 18)
        assert (traces_module._BlockForest, 0) not in hosts[0].memo
        monkeypatch.undo()
        for h in reversed(hosts):
            fresh = new_hypergraph(h.m, h.n, h.edges)
            for d in (9, 12, 15, 18):
                assert trace(h, d) == trace(fresh, d)


STEPPED_HOSTS = {
    **{f"edge-{m}": hyperpath(m, 1) for m in range(2, 6)},
    "hyperpath-3-4": hyperpath(3, 4),
    "hyperstar-4-3": hyperstar(4, 3),
    "loose-3-cycle": LOOSE_3_CYCLE,
    **{f"hypertree-3-5-{i}": h for i, h in enumerate(enumerate_hypertrees(3, 5))},
}


class TestOrderStep:
    """A block whose every edge has a vertex on no other of its edges
    has rootings only at multiples of m, as balance at such a vertex v
    of an edge e reads m * r(v) = k_e: its table is empty, and nothing
    is enumerated, at every other order."""

    @pytest.mark.parametrize("name", sorted(STEPPED_HOSTS))
    def test_off_the_step_the_oracle_yields_no_rooting(self, name):
        h = STEPPED_HOSTS[name]
        h = new_hypergraph(h.m, h.n, h.edges)
        with counted_enumeration() as calls:
            for d in range(1, 3 * h.m + 2):
                if d % h.m:
                    assert next(enumerate_rootings(h, d), None) is None
                    assert trace(h, d) == enumerated_trace(h, d) == 0
        assert {block.step for block in traces_module._forest(h, 0, 0).blocks} == {h.m}
        assert all(d % h.m == 0 for _, d in calls)

    def test_a_star_bracket_enumerates_the_multiples_of_m_alone(self):
        with counted_enumeration() as calls:
            estimate = estrada_index(hyperstar(3, 4), 1e-6)
        assert estimate.depth == 27
        assert [d for _, d in calls] == list(range(3, 28, 3))

    @pytest.mark.parametrize("h", [K4, K4_3, K5_3], ids=["k4", "k4-3", "k5-3"])
    def test_a_block_with_an_edge_of_shared_vertices_enumerates_every_order(self, h):
        h = new_hypergraph(h.m, h.n, h.edges)
        with counted_enumeration() as calls:
            profile = local_trace_profile(h, 0, 6)
        assert [block.step for block in traces_module._forest(h, 0, 0).blocks] == [1]
        assert [d for _, d in calls] == list(range(1, 7))
        assert profile.entries == {**enumerated_profile(h, 0, 6), (0, 0): (h.m - 1) ** (h.n - 1)}

    def test_blocks_are_read_only_on_their_step(self, monkeypatch):
        orders = []
        table = traces_module._BlockForest.table

        def counted(self, block, d):
            orders.append(d)
            return table(self, block, d)

        monkeypatch.setattr(traces_module._BlockForest, "table", counted)
        assert estrada_index(hyperstar(3, 4), 1e-6).depth == 27
        star = len(orders)
        h = hyperpath(3, 5)
        assert trace(h, 15) == enumerated_trace(h, 15)
        assert star and len(orders) > star
        assert all(d % 3 == 0 for d in orders)


class TestSingleEdgeSpectrum:
    """A single m-edge's traces from its characteristic polynomial,
    ``x^(m (m-1)^(m-1) - m^(m-1)) * (x^m - 1)^(m^(m-2))`` (Cooper & Dutle,
    Spectra of uniform hypergraphs, 2012), sharing no code with the
    enumerator: each m-th root of unity is an eigenvalue m^(m-2) times,
    so the power sums are m^(m-1) at the multiples of m and 0 elsewhere.
    The only rooting at order m r roots every vertex r times, so the
    profile at a vertex holds that trace at t = r alone."""

    @pytest.mark.parametrize("m", range(2, 8))
    def test_traces_and_profile(self, m):
        h = hyperpath(m, 1)
        want = [m * (m - 1) ** (m - 1)] + [
            m ** (m - 1) if d % m == 0 else 0 for d in range(1, 5 * m + 1)]
        assert [trace(h, d) for d in range(5 * m + 1)] == want
        assert local_trace_profile(h, 0, 5 * m).entries == {
            (0, 0): (m - 1) ** (m - 1), **{(m * r, r): m ** (m - 1) for r in range(1, 6)}}


def enumerated_profile(h, anchor, d_max):
    """The nonzero Tr_{d;t} at the anchor straight from the definition:
    every rooting of the whole host, matched by a pinned query."""
    entries = {}
    for d in range(1, d_max + 1):
        weighed = [(mat.root_counts, contribution(mat, h.n)) for mat in enumerate_rootings(h, d)]
        for t in range(1, d + 1):
            q = query(pinned=(anchor, t))
            value = sum((w for roots, w in weighed if matches(q, roots)), Fraction(0))
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
        # the row every phi(r) is read from holds the closed form
        for m in range(2, 6):
            h = hyperstar(m, 3)
            local_trace_profile(h, 0, 12)
            assert traces_module._forest(h, 0, 0).phi == [0] + [
                (m - 1) ** (r - 1) * factorial(r - 1) for r in range(1, 13)]

    def test_profiles_of_k4_at_two_anchors_enumerate_it_once_per_order(self):
        h = new_hypergraph(2, 4, K4.edges)
        with counted_enumeration() as calls:
            p0, p3 = (local_trace_profile(h, anchor, 8) for anchor in (0, 3))
        assert [d for _, d in calls] == list(range(1, 9))
        assert p0.entries == p3.entries
        assert p0.entries == {**enumerated_profile(h, 0, 8), (0, 0): 1}

    def test_a_one_block_trace_after_a_profile_enumerates_nothing(self):
        h = new_hypergraph(2, 4, K4.edges)
        with counted_enumeration() as calls:
            local_trace_profile(h, 0, 6)
            got = [trace(h, d) for d in range(1, 7)]
        assert [d for _, d in calls] == list(range(1, 7))
        assert got == [trace_m2_oracle(h, d) for d in range(1, 7)]

    def test_profiles_of_the_loose_3_cycle_at_two_anchors_share_its_table(self):
        # vertex 0 lies on two edges and vertex 1 on one; every edge has
        # a vertex on no other, so the cycle has rootings only at
        # multiples of 3
        h = new_hypergraph(3, 6, LOOSE_3_CYCLE.edges)
        with counted_enumeration() as calls:
            p0, p1 = (local_trace_profile(h, anchor, 9) for anchor in (0, 1))
        assert [d for _, d in calls] == [3, 6, 9]
        assert (p0.value(9, 3), p1.value(9, 3)) == (468, 72)
        for anchor, p in ((0, p0), (1, p1)):
            assert p.entries == {**enumerated_profile(h, anchor, 9), (0, 0): 32}

    def test_a_fresh_one_block_trace_enumerates_its_order_only(self):
        for h, d in ((new_hypergraph(2, 5, combinations(range(5), 2)), 7),
                     (new_hypergraph(3, 5, K5_3.edges), 5)):
            with counted_enumeration() as calls:
                assert trace(h, d) == enumerated_trace(h, d)
                assert trace(h, d - 2) == enumerated_trace(h, d - 2)
                assert trace(h, d) == enumerated_trace(h, d)
            assert [e for _, e in calls] == [d, d - 2]

    @pytest.mark.parametrize("after", (0, 3, 11))
    def test_an_interrupted_profile_is_dropped(self, monkeypatch, after):
        # masses 5 to 8 each join two cut vertices and the anchor: the
        # cuts fall at the start of mass 5, the start of mass 6 and the
        # anchor's join at mass 8, the last one
        h = coalesce(K4, 0, hyperpath(2, 2), 0)
        anchor = 1
        assert local_trace_profile(h, anchor, 4).entries == {
            **enumerated_profile(h, anchor, 4), (0, 0): 1}
        join, calls = traces_module._BlockForest._join, []

        def failing(*args):
            calls.append(args)
            if len(calls) > after:
                raise RuntimeError("interrupted")
            return join(*args)

        monkeypatch.setattr(traces_module._BlockForest, "_join", failing)
        with pytest.raises(RuntimeError):
            local_trace_profile(h, anchor, 8)
        assert (traces_module._BlockForest, anchor) not in h.memo
        monkeypatch.undo()
        assert local_trace_profile(h, anchor, 8).entries == {
            **enumerated_profile(h, anchor, 8), (0, 0): 1}


def forests(h):
    """The anchors of the block forests h keeps."""
    return sorted(key[1] for key in h.memo if key[0] is traces_module._BlockForest)


class TestSharedForest:
    """A plain trace reads the forest rooted at the host's first vertex
    on an edge, so a profile or a pin at that vertex shares its DP and
    its one-block reads."""

    def test_a_profile_at_the_root_after_a_trace_extends_nothing(self, monkeypatch):
        h = coalesce(K4, 0, K4, 0)
        extend, calls = traces_module._BlockForest._extend, []

        def counted(forest, k):
            calls.append(k)
            return extend(forest, k)

        monkeypatch.setattr(traces_module._BlockForest, "_extend", counted)
        got = trace(h, 8)
        profile = local_trace_profile(h, 0, 8)
        monkeypatch.undo()
        assert forests(h) == [0]
        assert calls == list(range(2, 9))  # no rooting at order 1
        assert got == trace_m2_oracle(h, 8)
        assert profile.entries == {**enumerated_profile(h, 0, 8), (0, 0): 1}

    def test_a_host_whose_vertex_0_is_on_no_edge_roots_at_its_first_vertex_on_one(self):
        # the loose 3-cycle on vertices 1..6 of 8: a plain trace and the
        # pin at vertex 1 read one forest, each (m-1)^2 = 4 times the
        # value on the cycle's own 6 vertices
        c = new_hypergraph(3, 8, [(1, 2, 3), (3, 4, 5), (5, 6, 1)])
        pin = query(pinned=(1, 3))
        got = (trace(c, 9), trace_local(c, 9, pin))
        assert forests(c) == [1]
        weighed = [(mat.root_counts, contribution(mat, c.n)) for mat in enumerate_rootings(c, 9)]
        assert got == (7344, 1872) == (
            enumerated_trace(c, 9),
            sum((w for roots, w in weighed if matches(pin, roots)), Fraction(0)))
        assert (trace(c, 10), trace(c, 12)) == (0, 28080) == (
            enumerated_trace(c, 10), enumerated_trace(c, 12))


class TestMassFirstJoin:
    """A cut vertex joins its child blocks' sums column by column, keyed
    mass first, so a product at mass k reads only the masses i and k - i
    at which both factors have entries."""

    def test_three_dense_children_at_one_cut(self):
        budget = Budget(cost_limit=1000)  # 18 edges * 8
        h = coalesce(coalesce(K4, 0, K4, 0), 0, K4, 0)
        for anchor in (0, 1):
            assert local_trace_profile(h, anchor, 8, budget).entries == {
                **enumerated_profile(h, anchor, 8), (0, 0): 1}
        assert [trace(h, d, budget) for d in range(1, 9)] == [
            trace_m2_oracle(h, d) for d in range(1, 9)]

    def test_a_cycle_a_dense_block_and_an_edge_at_one_cut(self):
        # vertex 0 joins the loose 3-cycle, K4_3 and one edge; vertex 1
        # lies on the cycle alone and vertex 6 on K4_3 alone
        budget = Budget(cost_limit=1000)
        h = coalesce(coalesce(LOOSE_3_CYCLE, 0, K4_3, 0), 0, hyperpath(3, 1), 0)
        for anchor in (0, 1, 6):
            assert local_trace_profile(h, anchor, 9, budget).entries == {
                **enumerated_profile(h, anchor, 9), (0, 0): 2 ** 10}
        assert [trace(h, d, budget) for d in range(1, 10)] == [
            enumerated_trace(h, d) for d in range(1, 10)]

    def test_an_eleven_child_join_matches_the_matrix_oracle(self):
        # the star hangs its 12 edges from the centre, which joins them all
        h, budget = hyperstar(2, 12), Budget(cost_limit=576)
        got = estrada_index(h, 1e-3, budget)
        want = estrada_index_m2_oracle(h, 1e-3, budget)
        assert (got.lower, got.upper, got.depth, got.traces, got.tail_bound) == (
            want.lower, want.upper, want.depth, want.traces, want.tail_bound)

    @staticmethod
    def grown_block_products(monkeypatch) -> list[int]:
        """The masses at which the product routine grows a block entry's
        product of two or more ``A_w(t_w)``, recorded as they happen;
        the routine's calls on a cut's ``C_w`` are left out."""
        grow, masses = traces_module._Product.grow, []

        def counted(product, k, row):
            if not isinstance(product, traces_module._Cut):
                masses.append(k)
            return grow(product, k, row)

        monkeypatch.setattr(traces_module._Product, "grow", counted)
        return masses

    def test_a_star_bracket_grows_no_block_product(self, monkeypatch):
        # every block of a star is a single edge with no cut vertex
        # below it, so no block entry has a product of two factors
        masses = self.grown_block_products(monkeypatch)
        assert estrada_index(hyperstar(3, 4), 1e-6).depth == 27
        assert masses == []

    def test_block_products_grow_only_at_masses_on_the_order_step(self, monkeypatch):
        # a bipartite host has rootings only at even orders, so every
        # product at an odd mass is zero and is not grown; hung from
        # vertex 0, its 4-cycle has the cut vertices 1 and 2 below it
        masses = self.grown_block_products(monkeypatch)
        h = new_hypergraph(2, 6, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (2, 5)])
        budget = Budget(cost_limit=10**4)
        got = estrada_index(h, "1e-6", budget)
        assert masses and all(k % 2 == 0 for k in masses)
        want = estrada_index_m2_oracle(h, "1e-6", budget)
        assert (got.lower, got.upper, got.depth) == (want.lower, want.upper, want.depth)


class TestMorozovShakirovOracle:
    """The Morozov-Shakirov trace (``conftest.morozov_shakirov_trace``)
    differentiates tr(Z^N) and shares no code with the Euler-rooting
    expansion, the rooting tables or the forest DP."""

    @pytest.mark.parametrize("name", ["k4", "asymmetric"])
    def test_the_oracle_is_the_matrix_power_trace_at_m2(self, name):
        h, _ = SYMMETRIC_HOSTS[name]
        assert [morozov_shakirov_trace(h, d) for d in range(9)] == [
            trace_m2_oracle(h, d) for d in range(9)]

    def test_a_dense_block_with_a_pendant_edge(self):
        h = coalesce(K4_3, 0, hyperpath(3, 1), 0)
        assert [trace(h, d) for d in range(7)] == [
            morozov_shakirov_trace(h, d) for d in range(7)]

    def test_a_root_edge_with_two_cut_vertices_below(self):
        # a plain trace roots at vertex 0, on the middle edge, so each of
        # its entries rooting 1 and 2 reads a product of two A_w(t_w); a
        # hypertree has rootings only at multiples of m
        h = new_hypergraph(3, 7, [(0, 1, 2), (1, 3, 4), (2, 5, 6)])
        assert [trace(h, d) for d in (3, 6, 9)] == [
            morozov_shakirov_trace(h, d) for d in (3, 6, 9)] == [432, 864, 1971]

    def test_one_k_vector_per_orbit_on_a_relabeled_dense_3_graph(self, monkeypatch):
        # K5^3 less one edge has more edges than vertices, so its tables
        # keep one k-vector per orbit of the automorphisms fixing the root
        # counts, which must drop some for the pin to reach the fold
        [(h, _)] = relabelings(complete(3, 5, ((0, 1, 2),)), 1, seed=3)
        offered, kept = [], []
        least = _Orbits.least_k_vectors

        def counted(orbits, found, r):
            out = least(orbits, found, r)
            offered.append(len(found))
            kept.append(len(out))
            return out

        monkeypatch.setattr(_Orbits, "least_k_vectors", counted)
        assert [trace(h, d) for d in (3, 4, 5)] == [
            morozov_shakirov_trace(h, d) for d in (3, 4, 5)]
        assert sum(kept) < sum(offered)


class TestPinnedReads:
    """A pinned value is read from the store of block tables: on a host
    of one block from its table at the order asked, else from the
    forest rooted at the pinned vertex."""

    @pytest.mark.parametrize("name", ["asymmetric", "k5", "k5-3", "petersen", "k4-k4-k4"])
    def test_pinned_values_equal_the_filtered_enumeration(self, name):
        if name == "k4-k4-k4":
            h = coalesce(coalesce(K4, 3, K4, 0), 6, K4, 0)
        else:
            h, _ = SYMMETRIC_HOSTS[name]
        for d in range(1, 8):
            g = new_hypergraph(h.m, h.n, h.edges)
            weighed = [(mat.root_counts, contribution(mat, h.n))
                       for mat in enumerate_rootings(h, d)]
            for v in h.vertices:
                for t in range(1, d + 2):
                    # forbidding a cut vertex of K4.K4.K4 splits the host
                    for q in (query(pinned=(v, t)),
                              query(forbidden=[(v + 3) % h.n], pinned=(v, t))):
                        want = sum((w for roots, w in weighed if matches(q, roots)),
                                   Fraction(0))
                        assert trace_local(g, d, q) == want

    def test_a_pin_after_a_trace_enumerates_nothing(self):
        k5, q = complete(2, 5), query(pinned=(0, 2))
        with counted_enumeration() as calls:
            assert trace(k5, 8) == trace_m2_oracle(k5, 8)
            got = trace_local(k5, 8, q)
        assert [d for _, d in calls] == [8]
        assert got == sum((contribution(mat, k5.n) for mat in enumerate_rootings(k5, 8)
                           if matches(q, mat.root_counts)), Fraction(0))

    def test_a_one_block_host_projects_each_order_once_per_pinned_vertex(self, monkeypatch):
        k5 = complete(2, 5)
        queries = [query(pinned=(v, t)) for v in range(5) for t in (1, 2, 3)]
        projected = []
        rootings = traces_module._BlockForest.rootings

        def counted(forest, block, d):
            projected.append((id(forest), d))
            return rootings(forest, block, d)

        monkeypatch.setattr(traces_module._BlockForest, "rootings", counted)
        got = trace_table(k5, 9, queries)
        monkeypatch.undo()
        # the one-block reader of each forest projects each order's table
        # once; the plain values share the forest of the pins at vertex
        # 0, so 5 forests read 9 orders each
        assert len(projected) == len(set(projected)) == 45
        assert {f for f, _ in projected} == {id(k5.memo[traces_module._BlockForest, v])
                                            for v in range(5)}
        weighed = {d: [(mat.root_counts, contribution(mat, k5.n))
                       for mat in enumerate_rootings(k5, d)] for d in range(1, 10)}
        for q in queries:
            assert got.get(0, q) == 0
            for d in range(1, 10):
                assert got.get(d, q) == sum(
                    (w for roots, w in weighed[d] if matches(q, roots)), Fraction(0))


class TestPairedTables:
    """On m = 2 a rooting table reads one rooting of each reversal pair
    and counts a rooting that is not its own reversal twice."""

    @pytest.mark.parametrize("h, d_max", [
        (TRIANGLE, 8),
        (new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]), 8),
        (new_hypergraph(2, 4, combinations(range(4), 2)), 8),
        (new_hypergraph(2, 5, [e for e in combinations(range(5), 2) if e != (0, 1)]), 7),
        (new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]), 9),
    ], ids=["triangle", "c4-chord", "k4", "k5-e", "loose-3-cycle"])
    def test_tables_equal_the_unpaired_sums(self, h, d_max):
        for d in range(1, d_max + 1):
            assert traces_module._enumerate_table(h, d, _Group(h, [])) == unpaired_table(h, d)


class TestOrbitTables:
    """A block's table is enumerated at one root-count vector per orbit
    of its automorphism group and copied onto the rest of the orbit."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_HOSTS))
    def test_reduced_tables_equal_the_unreduced_sums(self, name):
        h, _ = SYMMETRIC_HOSTS[name]
        copies = relabelings(h, 2)
        for d in range(1, ORBIT_ORDERS[name] + 1):
            want = unpaired_table(h, d)
            assert traces_module._enumerate_table(h, d, _Group(h, _labeling(h)[1])) == want
            for g, perm in copies:
                moved = {}
                for key, part in want.items():
                    image = [0] * h.n
                    for v, r in enumerate(key):
                        image[perm[v]] = r
                    moved[tuple(image)] = part
                got = traces_module._enumerate_table(g, d, _Group(g, _labeling(g)[1]))
                assert got == moved

    def test_each_orbit_is_closed_once_per_table(self, monkeypatch):
        k5, _ = SYMMETRIC_HOSTS["k5"]
        closed = []
        orbit = symmetry_module._orbit

        def counted(r, generators):
            closed.append(frozenset(orbit(r, generators)))
            return closed[-1]

        monkeypatch.setattr(symmetry_module, "_orbit", counted)
        monkeypatch.setattr(traces_module, "_orbit", counted, raising=False)
        table = traces_module._enumerate_table(k5, 8, _Group(k5, _labeling(k5)[1]))
        assert table == unpaired_table(k5, 8)
        assert closed and len(closed) == len(set(closed))
        # root-count vectors over the vertices, and k-vectors over the edges
        assert {len(next(iter(orbit))) for orbit in closed} == {k5.n, k5.edge_count}

    def test_the_store_keeps_each_blocks_generators(self):
        k5, _ = SYMMETRIC_HOSTS["k5"]
        asym, _ = SYMMETRIC_HOSTS["asymmetric"]
        h = coalesce(coalesce(k5, 0, asym, 0), 1, hyperpath(2, 1), 0)
        trace(h, 6)
        store = h.memo[traces_module._STORE]
        generators = {block: store[block] for block in store
                      if not isinstance(block, tuple)}
        assert sorted(group_order(gens, block.n) for block, gens in generators.items()) == [
            1, 1, 120]
        assert all(gens == [] for block, gens in generators.items() if block.n != 5)
        assert trace(h, 6) == trace_m2_oracle(h, 6)

    def test_orbits_cut_the_rootings_enumerated(self, monkeypatch):
        yielded = []

        def counting(*args, **kwargs):
            for mat in enumerate_rootings(*args, **kwargs):
                yielded.append(mat)
                yield mat

        monkeypatch.setattr(traces_module, "enumerate_rootings", counting)
        k5 = complete(2, 5)
        assert trace(k5, 8) == trace_m2_oracle(k5, 8)
        monkeypatch.undo()
        paired = enumerate_rootings(k5, 8, orbits=_Orbits(_Group(k5, [])))
        assert 10 * len(yielded) < sum(1 for _ in paired)


class TestStabilizerOrbits:
    """At a least root-count vector r of a dense block the enumerator
    keeps the least k-vector of each orbit under the pool elements that
    fix r, and the table counts its rootings once per k-vector of that
    orbit."""

    @settings(max_examples=40, deadline=None)
    @given(h=dense_hosts(), data=st.data())
    def test_tables_with_generators_equal_the_unpaired_sums(self, h, data):
        assert h.edge_count > h.n and len(block_tree(h)) == 1
        d = data.draw(st.integers(1, 6 if h.m == 2 else 5))
        got = traces_module._enumerate_table(h, d, _Group(h, _labeling(h)[1]))
        assert got == unpaired_table(h, d)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_HOSTS))
    def test_the_pool_holds_automorphisms_generating_the_group(self, name):
        h, order = SYMMETRIC_HOSTS[name]
        pool = _Group(h, _labeling(h)[1]).pool
        for g, edge_map in pool:
            images = [tuple(sorted(g[v] for v in e)) for e in h.edges]
            assert sorted(g) == list(h.vertices) and sorted(images) == sorted(h.edges)
            assert [h.edges[i] for i in edge_map] == images
        assert len({g for g, _ in pool}) == len(pool)
        assert len(closure([g for g, _ in pool], h.n)) == order

    @pytest.mark.parametrize("name", sorted(n for n, (h, _) in SYMMETRIC_HOSTS.items()
                                            if h.edge_count > h.n))
    def test_each_orbit_size_is_the_orbit_under_the_fixing_elements(self, name):
        h, _ = SYMMETRIC_HOSTS[name]
        group = _Group(h, _labeling(h)[1])
        everything = brute_force_automorphisms(h)
        index = {e: i for i, e in enumerate(h.edges)}

        def image(k, a):
            moved = [0] * h.edge_count
            for e, x in zip(h.edges, k):
                moved[index[tuple(sorted(a[v] for v in e))]] = x
            return tuple(moved)

        for d in range(1, ORBIT_ORDERS[name] + 1):
            orbits = _Orbits(group)
            for k in {mat.k_vector for mat in enumerate_rootings(h, d, orbits=orbits)}:
                load = [0] * h.n
                for e, x in zip(h.edges, k):
                    for v in e:
                        load[v] += x
                r = [x // h.m for x in load]

                def fixes(a):
                    return all(r[a[v]] == r[v] for v in h.vertices)

                fixing = [g for g, _ in group.pool if fixes(g)]
                orbit = {image(k, a) for a in closure(fixing, h.n)}
                assert k == min(orbit) and orbits.sizes.get(k, 1) == len(orbit)
                if name in ("k5", "k5-e", "k6-e", "k5-3"):
                    # the fixing elements give the orbits of the whole stabilizer
                    assert orbit == {image(k, a) for a in everything if fixes(a)}

    @pytest.mark.parametrize("h, d, weighed", [
        (complete(2, 5), 8, 43),
        (complete(3, 5), 9, 621),
        (complete(2, 7), 6, 13),
    ])
    def test_rootings_weighed(self, monkeypatch, h, d, weighed):
        yielded = []

        def counting(*args, **kwargs):
            for mat in enumerate_rootings(*args, **kwargs):
                yielded.append(mat)
                yield mat

        monkeypatch.setattr(traces_module, "enumerate_rootings", counting)
        table = traces_module._enumerate_table(h, d, _Group(h, _labeling(h)[1]))
        monkeypatch.undo()
        assert len(yielded) == weighed
        assert table == traces_module._enumerate_table(h, d, _Group(h, []))

    def test_the_labeling_runs_once_per_relabeled_block(self, monkeypatch):
        # the store's group keeps its generators and pool for every order
        runs = []
        labeling = traces_module._labeling

        def counted(h):
            runs.append(h.n)
            return labeling(h)

        monkeypatch.setattr(traces_module, "_labeling", counted)
        k5 = complete(2, 5)
        assert [trace(k5, d) for d in range(1, 9)] == [
            trace_m2_oracle(k5, d) for d in range(1, 9)]
        assert runs == [5]

    @pytest.mark.parametrize("name", sorted(WEAK_GENERATOR_HOSTS))
    def test_exact_where_the_generators_reduce_less_than_the_group(self, name):
        h = WEAK_GENERATOR_HOSTS[name]
        group = _Group(h, _labeling(h)[1])
        for d in range(1, 7):
            assert traces_module._enumerate_table(h, d, group) == unpaired_table(h, d)
        assert [trace(h, d) for d in range(1, 9)] == [
            trace_m2_oracle(h, d) for d in range(1, 9)]
