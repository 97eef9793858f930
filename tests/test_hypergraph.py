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
import hypertrace.hypergraph as hypergraph_module
from hypertrace.hypergraph import (
    _attach_pendant_edge,
    _labeling,
    _node,
    _ranked,
    _tree_code,
    block_tree,
)

from conftest import (
    SYMMETRIC_HOSTS,
    brute_force_automorphisms,
    brute_force_isomorphic,
    complete,
    connected_graph_classes,
    enumerate_hypertrees_oracle,
    group_order,
    relabelings,
)


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

    def test_power_rejects_bad_uniformity(self):
        tri = new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
        # 3.0 and "3" died with TypeError
        for m in (3.0, "3"):
            with pytest.raises(ValidationError):
                power(tri, m)

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


def block_edges(h):
    """The edge sets of h's blocks, sorted by their first edge."""
    return tuple(sorted(edge_ids for edge_ids, _ in block_tree(h)))


def random_host(data):
    m = data.draw(st.sampled_from((2, 3)))
    n = data.draw(st.integers(min_value=m, max_value=7))
    pool = list(combinations(range(n), m))
    edges = data.draw(st.lists(st.sampled_from(pool), max_size=7, unique=True))
    return new_hypergraph(m, n, edges)


# a triangle, an isolated vertex and a second triangle
TWO_TRIANGLES = new_hypergraph(2, 7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)])


def check_block_tree(h, root):
    """``block_tree(h, root)`` splits off the blocks by definition, each
    below a vertex of its own and after the blocks below it: a component
    hangs from root if it holds root, else from its first vertex."""
    tree = block_tree(h, root)
    assert tuple(sorted(edge_ids for edge_ids, _ in tree)) == separated_blocks(h)
    verts = [{v for i in edge_ids for v in h.edges[i]} for edge_ids, _ in tree]
    component = {v: {v} for v in h.vertices}
    for e in h.edges:
        joined = set().union(*(component[v] for v in e))
        component.update(dict.fromkeys(joined, joined))
    for b, (_, up) in enumerate(tree):
        top = root if root in component[up] else min(component[up])
        assert up in verts[b]
        if top in verts[b]:
            assert up == top
        else:  # a cut vertex of the block above
            assert any(up in vs for vs in verts[b + 1:])


class TestBlocks:
    def test_hypertree_blocks_are_its_edges(self):
        for m, z in ((2, 5), (3, 4), (4, 3)):
            for h in enumerate_hypertrees(m, z):
                assert block_edges(h) == tuple((i,) for i in range(z))

    def test_two_connected_hosts_are_one_block(self):
        for h in (new_hypergraph(2, 4, combinations(range(4), 2)),
                  new_hypergraph(3, 5, combinations(range(5), 3)), LOOSE_3_CYCLE):
            assert block_edges(h) == (tuple(range(h.edge_count)),)

    def test_coalesced_cycles(self):
        g = coalesce(LOOSE_3_CYCLE, 1, LOOSE_3_CYCLE, 3)
        assert len(block_tree(g)) == 2
        assert {frozenset(v for i in b for v in g.edges[i]) for b in block_edges(g)} == {
            frozenset(range(6)), frozenset({1, *range(6, 11)}),
        }

    def test_edgeless_and_disconnected_hosts(self):
        assert block_tree(new_hypergraph(3, 4, [])) == ()
        # a triangle, an isolated vertex and a two-edge path
        h = new_hypergraph(2, 7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)])
        assert block_edges(h) == ((0, 1, 2), (3,), (4,))

    def test_each_component_hangs_from_its_first_vertex_children_first(self):
        # the path 4-5-6 hangs from 4, the edge 45 above the edge 56
        h = new_hypergraph(2, 7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)])
        assert block_tree(h) == (((0, 1, 2), 0), ((4,), 5), ((3,), 4))
        assert block_tree(h, 5) == (((3,), 5), ((4,), 5), ((0, 1, 2), 0))
        assert block_tree(h, 3) == (((0, 1, 2), 0), ((4,), 5), ((3,), 4))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_separation_definition(self, data):
        h = random_host(data)
        assert block_edges(h) == separated_blocks(h)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_root_hangs_each_block_below_a_vertex(self, data):
        h = random_host(data)
        for root in range(h.n):
            check_block_tree(h, root)

    @pytest.mark.parametrize("root", range(TWO_TRIANGLES.n))
    def test_every_root_of_a_disconnected_host(self, root):
        check_block_tree(TWO_TRIANGLES, root)


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


# Hosts with large groups and partners of the same size that are not
# isomorphic to them, on at most 6 vertices so that brute force is cheap.
SYMMETRIC_POOL = tuple(h for h, _ in SYMMETRIC_HOSTS.values() if h.n <= 6) + (
    complete(2, 5, ((0, 1), (2, 3))),
    complete(2, 5, ((0, 1), (1, 2))),
    complete(2, 6, ((0, 1), (2, 3))),
    complete(2, 6, ((0, 1), (1, 2))),
    complete(3, 5, ((0, 1, 2), (0, 1, 3))),
    complete(3, 5, ((0, 1, 2), (0, 3, 4))),
)

# The forms of the labeling search without automorphism pruning, which
# visited every leaf; the pruned search must keep them byte for byte.
LITERAL_FORMS = {
    "k5": b"2|5|0,1;0,2;0,3;0,4;1,2;1,3;1,4;2,3;2,4;3,4",
    "k5-3": b"3|5|0,1,2;0,1,3;0,1,4;0,2,3;0,2,4;0,3,4;1,2,3;1,2,4;1,3,4;2,3,4",
    "petersen": b"2|10|0,1;0,2;0,3;1,4;1,5;2,6;2,7;3,8;3,9;4,6;4,8;5,7;5,9;6,9;7,8",
    "loose-3-cycle": b"3|6|0,3,4;1,3,5;2,4,5",
    "asymmetric": b"2|6|0,1;0,3;1,5;2,4;2,5;3,4;3,5;4,5",
}


class TestAutomorphisms:
    """The labeling search records an automorphism whenever two leaves
    give the same form, and skips the children that the ones found so
    far map onto an explored sibling."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_HOSTS))
    def test_generators_generate_the_whole_group(self, name):
        h, order = SYMMETRIC_HOSTS[name]
        for g in [h] + [copy for copy, _ in relabelings(h, 3)]:
            _, generators = _labeling(g)
            edges = set(g.edges)
            for a in generators:
                assert sorted(a) == list(g.vertices)
                assert {tuple(sorted(a[v] for v in e)) for e in g.edges} == edges
            assert group_order(generators, g.n) == len(brute_force_automorphisms(g)) == order

    def test_closure_matches_brute_force_on_small_graphs(self):
        for h in connected_graph_classes(5):
            if h.edge_count and not is_hypertree(h):
                _, generators = _labeling(h)
                assert group_order(generators, h.n) == len(brute_force_automorphisms(h))

    def test_a_hypertree_follows_one_path_and_finds_no_generator(self):
        for h in (hyperstar(3, 4), hyperpath(2, 5), hyperpath(4, 1)):
            assert _labeling(h)[1] == []

    @pytest.mark.parametrize("name", sorted(LITERAL_FORMS))
    def test_literal_forms(self, name):
        h, _ = SYMMETRIC_HOSTS[name]
        for g in [h] + [copy for copy, _ in relabelings(h, 2)]:
            assert canonical_form(g) == LITERAL_FORMS[name]

    def test_literal_forms_of_relabeled_k7_and_k8(self):
        k7 = permute_vertices(complete(2, 7), [3, 6, 0, 5, 1, 4, 2])
        k8 = permute_vertices(complete(2, 8), [5, 2, 7, 0, 3, 6, 1, 4])
        assert canonical_form(k7) == (
            b"2|7|0,1;0,2;0,3;0,4;0,5;0,6;1,2;1,3;1,4;1,5;1,6;2,3;2,4;2,5;2,6;"
            b"3,4;3,5;3,6;4,5;4,6;5,6")
        assert canonical_form(k8) == (
            b"2|8|0,1;0,2;0,3;0,4;0,5;0,6;0,7;1,2;1,3;1,4;1,5;1,6;1,7;2,3;2,4;"
            b"2,5;2,6;2,7;3,4;3,5;3,6;3,7;4,5;4,6;4,7;5,6;5,7;6,7")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pruned_form_agrees_with_brute_force_on_symmetric_pairs(self, data):
        h1 = data.draw(st.sampled_from(SYMMETRIC_POOL))
        h2 = data.draw(st.sampled_from(SYMMETRIC_POOL))
        h2 = permute_vertices(h2, data.draw(st.permutations(range(h2.n))))
        assert are_isomorphic(h1, h2) == brute_force_isomorphic(h1, h2)


# every hypertree size the generator is checked against its oracle at
ORACLE_SIZES = [(2, 9), (3, 6), (4, 5)]
RAISED = Budget(tree_edge_limit=9)


class TestHypertreeEnumeration:
    @pytest.mark.parametrize(
        "m,z,count",
        [(2, 1, 1), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (3, 2, 1), (3, 3, 2),
         (2, 8, 47), (3, 6, 19), (3, 7, 48), (4, 5, 9)],
    )
    def test_class_counts(self, m, z, count):
        trees = enumerate_hypertrees(m, z, RAISED)
        assert len(trees) == count
        for t in trees:
            assert is_hypertree(t) and t.m == m and t.edge_count == z

    @pytest.mark.parametrize("m,z", [(2, 5), (3, 6), (4, 5)])
    def test_classes_are_pairwise_non_isomorphic(self, m, z):
        trees = enumerate_hypertrees(m, z)
        forms = {canonical_form(t) for t in trees}
        assert len(forms) == len(trees)

    def test_edge_budget_enforced(self):
        with pytest.raises(LimitExceeded):
            enumerate_hypertrees(2, 7)

    @pytest.mark.parametrize("m,z_max", ORACLE_SIZES)
    def test_matches_the_oracle_edge_for_edge(self, m, z_max):
        # the oracle grows at every vertex and deduplicates by canonical form
        for z in range(1, z_max + 1):
            assert [h.edges for h in enumerate_hypertrees(m, z, RAISED)] == [
                h.edges for h in enumerate_hypertrees_oracle(m, z, RAISED)]

    @pytest.mark.parametrize("m,z_max", ORACLE_SIZES)
    def test_tree_codes_agree_with_canonical_forms(self, m, z_max):
        for z in range(2, z_max + 1):
            grown = [_attach_pendant_edge(h, v)
                     for h in enumerate_hypertrees_oracle(m, z - 1, RAISED) for v in range(h.n)]
            pairs = {(_tree_code(g), canonical_form(g)) for g in grown}
            # equal codes exactly when equal forms: codes and forms pair one to one
            assert len({code for code, _ in pairs}) == len({form for _, form in pairs}) == len(pairs)

    @pytest.mark.parametrize("m,z_max", [(2, 7), (3, 4), (4, 3)])
    def test_stable_color_classes_are_the_orbits(self, m, z_max):
        # the growth step reaches every class by growing one vertex per color class
        for z in range(1, z_max + 1):
            for h in enumerate_hypertrees_oracle(m, z, RAISED):
                colors, _ = _node(h, _ranked(list(h.degrees)))
                autos = brute_force_automorphisms(h)
                for v in range(h.n):
                    assert {g[v] for g in autos} == {u for u in range(h.n) if colors[u] == colors[v]}

    def test_a_scan_labels_each_class_once(self, monkeypatch):
        labeled = []
        labeling = hypergraph_module._labeling

        def counted(h):
            labeled.append(h)
            return labeling(h)

        monkeypatch.setattr(hypergraph_module, "_labeling", counted)
        report = extremal_scan(3, 4, Fraction(1, 1000), Budget(cost_limit=256))
        assert report.path_is_minimum and report.star_is_maximum
        # the four classes, then a fresh path and star to name the extremes
        assert len(report.entries) == 4 and len(labeled) == 6


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
        with pytest.raises(ValidationError, match="invalid JSON"):
            loads_json("[" * 100_000)  # nested past the parser's depth

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        from hypertrace import load_json

        path = tmp_path / "h.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValidationError, match="not UTF-8"):
            load_json(str(path))
