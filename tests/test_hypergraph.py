"""Construction, surgery, canonical form, and serialization tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrace import (
    AttachSpec,
    Budget,
    DuplicateEdge,
    LimitExceeded,
    MixedUniformity,
    NonUniformEdge,
    NotAGraph,
    TrivialOperand,
    ValidationError,
    VertexOutOfRange,
    are_isomorphic,
    attach,
    canonical_form,
    coalesce,
    dumps_json,
    enumerate_hypertrees,
    extremal_scan,
    hyperpath,
    hyperstar,
    is_connected,
    is_hypertree,
    loads_json,
    new_hypergraph,
    permute_vertices,
    power,
)
from hypertrace.hypergraph import blocks, cut_vertices

from conftest import brute_force_isomorphic, connected_graph_classes


class TestValidation:
    def test_edges_are_sorted_and_deduplicated_on_construction(self):
        h = new_hypergraph(3, 5, [(4, 3, 2), (2, 0, 1)])
        assert h.edges == ((0, 1, 2), (2, 3, 4))

    def test_wrong_edge_size_rejected(self):
        with pytest.raises(NonUniformEdge):
            new_hypergraph(3, 4, [(0, 1)])

    def test_repeated_vertex_in_edge_rejected(self):
        with pytest.raises(NonUniformEdge):
            new_hypergraph(3, 4, [(0, 1, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(VertexOutOfRange):
            new_hypergraph(2, 3, [(0, 3)])
        with pytest.raises(VertexOutOfRange):
            new_hypergraph(2, 3, [(-1, 2)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            new_hypergraph(2, 3, [(0, 1), (1, 0)])

    def test_bad_m_and_n_rejected(self):
        with pytest.raises(ValidationError):
            new_hypergraph(1, 3, [])
        with pytest.raises(ValidationError):
            new_hypergraph(2, 0, [])

    def test_degrees_and_incidence(self):
        h = new_hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        assert h.degrees == (1, 1, 2, 1, 1)
        assert h.incidence == ((0,), (0,), (0, 1), (1,), (1,))
        assert h.degree(2) == 2
        with pytest.raises(VertexOutOfRange):
            h.degree(5)


class TestGenerators:
    def test_hyperpath_shape(self):
        h = hyperpath(3, 2)
        assert (h.m, h.n) == (3, 5)
        assert h.edges == ((0, 1, 2), (2, 3, 4))
        assert is_hypertree(h)

    def test_hyperstar_shape(self):
        h = hyperstar(3, 3)
        assert (h.m, h.n) == (3, 7)
        assert all(0 in e for e in h.edges)
        assert h.degrees[0] == 3
        assert is_hypertree(h)

    def test_single_edge_is_both_path_and_star(self):
        assert hyperpath(4, 1) == hyperstar(4, 1)

    def test_generator_argument_validation(self):
        with pytest.raises(ValidationError):
            hyperpath(3, 0)
        with pytest.raises(ValidationError):
            hyperstar(1, 2)
        # m and z must be ints; a bool or a float is not one
        for m, z in ((3, True), (True, 2), (3.0, 2), (2, 2.0), (2, "2"), (None, 2)):
            for generator in (hyperpath, hyperstar, enumerate_hypertrees):
                with pytest.raises(ValidationError):
                    generator(m, z)
            with pytest.raises(ValidationError):
                extremal_scan(m, z, Fraction(1, 10))

    def test_power_of_triangle(self):
        tri = new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
        h = power(tri, 3)
        assert (h.m, h.n, h.edge_count) == (3, 6, 3)
        # each original edge keeps its endpoints and gains one fresh vertex
        for (a, b), e in zip(tri.edges, sorted(h.edges)):
            assert a in e and b in e

    def test_power_rejects_non_graphs(self):
        h3 = hyperpath(3, 1)
        with pytest.raises(NotAGraph):
            power(h3, 4)

    def test_path_and_star_powers_of_graphs(self):
        assert are_isomorphic(power(hyperpath(2, 3), 3), hyperpath(3, 3))
        assert are_isomorphic(power(hyperstar(2, 3), 3), hyperstar(3, 3))


class TestSurgery:
    def test_coalesce_two_edges(self):
        e = hyperpath(3, 1)
        h = coalesce(e, 2, e, 0)
        assert (h.m, h.n) == (3, 5)
        assert h.edges == ((0, 1, 2), (2, 3, 4))
        assert are_isomorphic(h, hyperpath(3, 2))

    def test_coalesce_preserves_host_ids(self):
        host = hyperpath(3, 2)
        h = coalesce(host, 1, hyperpath(3, 1), 0)
        assert set(host.edges) <= set(h.edges)
        assert h.degrees[1] == 2

    def test_coalesce_validation(self):
        e = hyperpath(3, 1)
        with pytest.raises(MixedUniformity):
            coalesce(e, 0, hyperpath(4, 1), 0)
        with pytest.raises(VertexOutOfRange):
            coalesce(e, 9, e, 0)
        with pytest.raises(TrivialOperand):
            coalesce(e, 0, new_hypergraph(3, 3, []), 0)
        disconnected = new_hypergraph(2, 4, [(0, 1), (2, 3)])
        with pytest.raises(ValidationError):
            coalesce(disconnected, 0, hyperpath(2, 1), 0)
        # 0.5 raised NonUniformEdge about an internal edge, while 1.0 and
        # True glued at vertex 1
        for w in (0.5, 1.0, True, "1", None):
            with pytest.raises(ValidationError):
                coalesce(e, 0, e, w)
            with pytest.raises(ValidationError):
                coalesce(e, w, e, 0)

    def test_attach_builds_star(self):
        e = hyperpath(3, 1)
        h = attach(e, [AttachSpec(0, e, 0), AttachSpec(0, e, 0)])
        assert are_isomorphic(h, hyperstar(3, 3))

    def test_attach_host_vertex_checked_up_front(self):
        e = hyperpath(3, 1)
        with pytest.raises(VertexOutOfRange):
            attach(e, [AttachSpec(7, e, 0)])
        for w in (1.0, True):
            with pytest.raises(ValidationError):
                attach(e, [AttachSpec(0, e, 0), AttachSpec(w, e, 0)])
            with pytest.raises(ValidationError):
                attach(e, [AttachSpec(0, e, w)])


class TestConnectivity:
    def test_connected_cases(self):
        assert is_connected(new_hypergraph(2, 1, []))
        assert is_connected(hyperpath(3, 3))
        assert not is_connected(new_hypergraph(2, 4, [(0, 1), (2, 3)]))
        assert not is_connected(new_hypergraph(2, 3, [(0, 1)]))

    def test_hypertree_detection(self):
        assert is_hypertree(hyperpath(3, 2))
        assert is_hypertree(hyperstar(4, 3))
        tri = new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
        assert not is_hypertree(tri)
        assert not is_hypertree(new_hypergraph(2, 2, []))


LOOSE_3_CYCLE = new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])


def separated_blocks(h):
    """Blocks by definition: two edges share a block exactly when no
    single vertex separates them, i.e. they stay joined through shared
    vertices other than v for every v."""
    def joined(e, f, v):
        reach, todo = {e}, [e]
        while todo:
            a = todo.pop()
            for b in range(h.edge_count):
                if b not in reach and set(h.edges[a]) & set(h.edges[b]) - {v}:
                    reach.add(b)
                    todo.append(b)
        return f in reach

    classes = []
    for e in range(h.edge_count):
        for cls in classes:
            if all(joined(cls[0], e, v) for v in h.vertices):
                cls.append(e)
                break
        else:
            classes.append([e])
    return tuple(sorted(tuple(c) for c in classes))


class TestBlocks:
    def test_hypertree_blocks_are_its_edges(self):
        for m, z in ((2, 5), (3, 4), (4, 3)):
            for h in enumerate_hypertrees(m, z):
                assert blocks(h) == tuple((i,) for i in range(z))
                assert cut_vertices(h) == {v for v in h.vertices if h.degree(v) >= 2}

    def test_two_connected_hosts_are_one_block(self):
        for h in (new_hypergraph(2, 4, combinations(range(4), 2)),
                  new_hypergraph(3, 5, combinations(range(5), 3)), LOOSE_3_CYCLE):
            assert blocks(h) == (tuple(range(h.edge_count)),)
            assert cut_vertices(h) == frozenset()

    def test_coalesced_cycles(self):
        g = coalesce(LOOSE_3_CYCLE, 1, LOOSE_3_CYCLE, 3)
        assert len(blocks(g)) == 2
        assert cut_vertices(g) == {1}
        assert {frozenset(v for i in b for v in g.edges[i]) for b in blocks(g)} == {
            frozenset(range(6)), frozenset({1, *range(6, 11)}),
        }

    def test_edgeless_and_disconnected_hosts(self):
        assert blocks(new_hypergraph(3, 4, [])) == ()
        assert cut_vertices(new_hypergraph(3, 4, [])) == frozenset()
        # a triangle, an isolated vertex and a two-edge path
        h = new_hypergraph(2, 7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)])
        assert blocks(h) == ((0, 1, 2), (3,), (4,))
        assert cut_vertices(h) == {5}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_separation_definition(self, data):
        m = data.draw(st.sampled_from((2, 3)))
        n = data.draw(st.integers(min_value=m, max_value=7))
        pool = list(combinations(range(n), m))
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=7, unique=True))
        h = new_hypergraph(m, n, edges)
        assert blocks(h) == separated_blocks(h)


# Graphs on <= 4 vertices, small hypertrees (the one-path labeling rests
# on their color classes being orbits) and 3-uniform non-trees.
BRUTE_FORCE_POOL = (
    connected_graph_classes(4)
    + tuple(t for z in (1, 2, 3) for t in enumerate_hypertrees(3, z))
    + tuple(t for z in (1, 2) for t in enumerate_hypertrees(4, z))
    + tuple(
        new_hypergraph(3, n, edges)
        for n, edges in [
            (6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]),  # loose 3-cycle
            (6, [(0, 1, 2), (0, 3, 4), (1, 3, 5)]),  # loose 3-cycle, relabeled
            (6, [(0, 1, 2), (2, 3, 4), (2, 4, 5)]),
            (6, [(0, 1, 2), (1, 2, 3), (3, 4, 5)]),
            (7, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6)]),
            (7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5)]),
        ]
    )
)


class TestCanonicalForm:
    def test_relabeling_is_invisible(self):
        h = hyperpath(3, 2)
        g = permute_vertices(h, [4, 2, 0, 3, 1])
        assert canonical_form(h) == canonical_form(g)
        assert are_isomorphic(h, g)

    def test_distinguishes_path_from_star(self):
        assert not are_isomorphic(hyperpath(3, 3), hyperstar(3, 3))

    def test_distinguishes_same_size_graphs(self):
        # same vertex and edge counts, different shape
        a = new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
        b = new_hypergraph(2, 4, [(0, 1), (0, 2), (0, 3)])
        assert not are_isomorphic(a, b)

    def test_vertex_budget_enforced(self):
        h = hyperpath(2, 30)
        with pytest.raises(LimitExceeded):
            canonical_form(h, Budget(canon_vertex_limit=10))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_agrees_with_brute_force_on_graph_pairs(self, data):
        h1 = data.draw(st.sampled_from(BRUTE_FORCE_POOL))
        h2 = data.draw(st.sampled_from(BRUTE_FORCE_POOL))
        h2 = permute_vertices(h2, data.draw(st.permutations(range(h2.n))))
        assert are_isomorphic(h1, h2) == brute_force_isomorphic(h1, h2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_permutation_invariance_on_small_hypergraphs(self, data):
        base = data.draw(
            st.sampled_from(
                [
                    hyperpath(3, 2),
                    hyperstar(3, 3),
                    hyperpath(4, 2),
                    new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (2, 4, 5)]),
                    hyperstar(3, 6),
                    hyperstar(4, 3),
                ]
            )
        )
        perm = data.draw(st.permutations(range(base.n)))
        assert canonical_form(permute_vertices(base, perm)) == canonical_form(base)

    def test_graph_classes_have_distinct_forms(self):
        classes = connected_graph_classes(5)
        forms = {canonical_form(h) for h in classes}
        assert len(forms) == len(classes) == 31


class TestHypertreeEnumeration:
    @pytest.mark.parametrize(
        "m,z,count",
        [(2, 1, 1), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (3, 2, 1), (3, 3, 2)],
    )
    def test_class_counts(self, m, z, count):
        trees = enumerate_hypertrees(m, z)
        assert len(trees) == count
        for t in trees:
            assert is_hypertree(t) and t.m == m and t.edge_count == z

    def test_classes_are_pairwise_non_isomorphic(self):
        trees = enumerate_hypertrees(2, 5)
        forms = {canonical_form(t) for t in trees}
        assert len(forms) == len(trees)

    def test_edge_budget_enforced(self):
        with pytest.raises(LimitExceeded):
            enumerate_hypertrees(2, 7)


class TestJson:
    def test_round_trip(self):
        h = hyperstar(3, 2)
        assert loads_json(dumps_json(h)) == h

    def test_file_round_trip(self, tmp_path):
        from hypertrace import load_json, save_json

        h = hyperpath(4, 2)
        path = tmp_path / "h.json"
        save_json(h, str(path))
        assert load_json(str(path)) == h

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ValidationError):
            loads_json("not json at all")
        with pytest.raises(ValidationError):
            loads_json('{"m": 2, "n": 3}')
        with pytest.raises(ValidationError):
            loads_json('{"m": 2, "n": 3, "edges": "nope"}')
        with pytest.raises(ValidationError):
            loads_json('{"m": 2, "n": 3, "edges": [[0, 1.5]]}')
        with pytest.raises(ValidationError):
            loads_json('{"m": 2, "n": 3, "edges": [[0, "1"]]}')
        with pytest.raises(ValidationError):
            loads_json('{"m": 2, "n": 3, "edges": [[0, true]]}')
        with pytest.raises(ValidationError):
            loads_json('{"m": 2, "n": true, "edges": []}')
