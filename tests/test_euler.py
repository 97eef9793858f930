"""Rooting enumeration, arborescence/Bareiss, and BEST-formula tests."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrace import (
    Budget,
    DirectedMultigraph,
    EmptyGraph,
    LimitExceeded,
    NotEulerian,
    RootCountMatrix,
    ValidationError,
    VertexOutOfRange,
    arborescence_count,
    build_digraph,
    contribution,
    enumerate_rootings,
    euler_circuits_best,
    euler_circuits_exhaustive,
    hyperpath,
    hyperstar,
    new_hypergraph,
    query,
    tuple_multiplicity,
)
from hypertrace.euler import _bareiss_determinant

TRIANGLE = new_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])

CENSUS_HOSTS = {
    "path-3-2": hyperpath(3, 2),
    "star-3-2": hyperstar(3, 2),
    "loose-3-cycle": new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]),
    "triangle": TRIANGLE,
    "c4-chord": new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    "edge-4": hyperpath(4, 1),
    "three-triples": new_hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)]),
}


def brute_force_census(h, d: int) -> set:
    """The count matrices of total d that the validator accepts, found
    by trying every way to spread d over the edge_count * m cells."""
    cells = h.edge_count * h.m
    found = set()
    for bars in combinations(range(d + cells - 1), cells - 1):
        ends = (-1, *bars, d + cells - 1)
        flat = [b - a - 1 for a, b in zip(ends, ends[1:])]
        counts = tuple(
            tuple(flat[i * h.m:(i + 1) * h.m]) for i in range(h.edge_count)
        )
        try:
            found.add(RootCountMatrix(host=h, counts=counts))
        except NotEulerian:
            pass
    return found


def brute_force_arborescences(g: DirectedMultigraph, root: int) -> int:
    """Sum, over every choice of one out-arc per non-root vertex whose
    functional graph leads every vertex to the root, of the product of
    the chosen arcs' multiplicities."""
    others = [v for v in g.vertices if v != root]
    outs = [[(w, mult) for (u, w), mult in g.arcs.items() if u == v] for v in others]
    total = 0
    for pick in product(*outs):
        succ = {v: w for v, (w, _) in zip(others, pick)}

        def reaches_root(v: int) -> bool:
            seen = set()
            while v != root:
                if v in seen:
                    return False
                seen.add(v)
                v = succ[v]
            return True

        if all(reaches_root(v) for v in others):
            total += math.prod(mult for _, mult in pick)
    return total


def cycle_digraph(k: int) -> DirectedMultigraph:
    return DirectedMultigraph(
        vertices=tuple(range(k)), arcs={(i, (i + 1) % k): 1 for i in range(k)}
    )


class TestRootCountMatrix:
    def test_valid_matrix_accepted(self):
        mat = RootCountMatrix(host=hyperpath(3, 1), counts=((1, 1, 1),))
        assert mat.k_vector == (3,)
        assert mat.total == 3
        assert mat.root_counts == {0: 1, 1: 1, 2: 1}
        assert mat.support == (0,)

    def test_row_shape_checked(self):
        with pytest.raises(ValidationError):
            RootCountMatrix(host=hyperpath(3, 1), counts=((1, 1),))
        with pytest.raises(ValidationError):
            RootCountMatrix(host=hyperpath(3, 1), counts=())

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            RootCountMatrix(host=hyperpath(3, 1), counts=((2, 2, -1),))

    def test_empty_selection_rejected(self):
        with pytest.raises(NotEulerian):
            RootCountMatrix(host=hyperpath(3, 1), counts=((0, 0, 0),))

    def test_unbalanced_rooting_rejected(self):
        # all three instances rooted at one vertex starves the others
        with pytest.raises(NotEulerian):
            RootCountMatrix(host=hyperpath(3, 1), counts=((3, 0, 0),))

    def test_disconnected_support_rejected(self):
        h = new_hypergraph(3, 7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
        with pytest.raises(NotEulerian):
            RootCountMatrix(host=h, counts=((1, 1, 1), (0, 0, 0), (1, 1, 1)))


class TestEnumeration:
    def test_single_edge_orders(self):
        h = hyperpath(3, 1)
        assert [m.counts for m in enumerate_rootings(h, 3)] == [((1, 1, 1),)]
        assert [m.counts for m in enumerate_rootings(h, 6)] == [((2, 2, 2),)]
        for d in (1, 2, 4, 5):
            assert list(enumerate_rootings(h, d)) == []

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValidationError):
            list(enumerate_rootings(hyperpath(3, 1), 0))

    def test_rejects_orders_and_pins_that_are_not_integers(self):
        # True enumerated order 1, (True, 1) pinned vertex 1 and (1, 2.0)
        # two roots; 2.5, "3", (1.0, 2) and a bare 5 died with TypeError
        k4 = new_hypergraph(2, 4, combinations(range(4), 2))
        for d in (True, 2.5, "3", -1):
            with pytest.raises(ValidationError):
                list(enumerate_rootings(k4, d))
        for pinned in ((True, 1), (1, 2.0), (1.0, 2), (1, True), 5, (1,), (1, 2, 3), "12"):
            with pytest.raises(ValidationError):
                list(enumerate_rootings(k4, 4, pinned))
        assert len(list(enumerate_rootings(k4, 4, [1, 2]))) == len(
            list(enumerate_rootings(k4, 4, (1, 2)))) > 0

    def test_two_edge_path_order_six(self):
        mats = {m.counts for m in enumerate_rootings(hyperpath(3, 2), 6)}
        assert mats == {
            ((2, 2, 2), (0, 0, 0)),
            ((1, 1, 1), (1, 1, 1)),
            ((0, 0, 0), (2, 2, 2)),
        }

    def test_every_enumerated_rooting_is_balanced_and_connected(self):
        # the enumerator's matrices and their digraphs skip validation, so
        # rebuild each one through the validating constructor, which
        # raises on a rooting that is unbalanced or has a disconnected
        # support, or on an arc off the vertex set
        for d in (2, 4, 6):
            for mat in enumerate_rootings(TRIANGLE, d):
                assert RootCountMatrix(host=TRIANGLE, counts=mat.counts) == mat
                assert mat.total == d
                g = build_digraph(mat)
                assert DirectedMultigraph(vertices=g.vertices, arcs=g.arcs) == g
                assert g.is_balanced() and g.is_weakly_connected()

    def test_triangle_rooting_census(self):
        # d=2: one edge doubly selected, rooted once at each endpoint
        assert len(list(enumerate_rootings(TRIANGLE, 2))) == 3
        # d=3: the two orientations of the full triangle
        assert len(list(enumerate_rootings(TRIANGLE, 3))) == 2

    def test_pinned_vertex_filters(self):
        # triangle host at d=4: six rootings total, exactly two of which
        # root vertex 0 once (host edge order (0,1), (0,2), (1,2))
        assert len(list(enumerate_rootings(TRIANGLE, 4))) == 6
        mats = list(enumerate_rootings(TRIANGLE, 4, (0, 1)))
        assert {m.counts for m in mats} == {
            ((1, 1), (0, 0), (1, 1)),
            ((0, 0), (1, 1), (1, 1)),
        }
        # on a path host the cut-vertex count is forced, so pinning the
        # forced value keeps every rooting
        h = hyperpath(3, 2)
        assert len(list(enumerate_rootings(h, 6, (2, 2)))) == 3

    def test_unsatisfiable_pin_yields_nothing(self):
        # a vertex on no edge is never rooted, and none is rooted more
        # often than the order
        h = new_hypergraph(3, 4, [(0, 1, 2)])
        assert len(list(enumerate_rootings(h, 3))) == 1
        assert list(enumerate_rootings(h, 3, (3, 1))) == []
        assert list(enumerate_rootings(h, 3, (0, 5))) == []
        assert list(enumerate_rootings(h, 3, (0, 4))) == []

    def test_query_vertex_range_checked(self):
        with pytest.raises(VertexOutOfRange):
            list(enumerate_rootings(hyperpath(3, 1), 3, (9, 1)))
        with pytest.raises(VertexOutOfRange):
            list(enumerate_rootings(hyperpath(3, 1), 3, (9, 5)))
        for t in (0, -1):
            with pytest.raises(ValidationError):
                list(enumerate_rootings(hyperpath(3, 1), 3, (0, t)))

    @pytest.mark.parametrize("name", sorted(CENSUS_HOSTS))
    def test_enumeration_matches_brute_force_census(self, name):
        # completeness and uniqueness: every valid rooting appears once
        h = CENSUS_HOSTS[name]
        pins = [None, (0, 1), (1, 2), (0, 3)]
        found = 0
        for d in range(1, 7):
            census = brute_force_census(h, d)
            # each weight is an integer over d!, which the trace sums rely on
            for mat in census:
                assert (contribution(mat, h.n) * math.factorial(d)).denominator == 1
            for pin in pins:
                mats = list(enumerate_rootings(h, d, pin))
                listed = [mat.counts for mat in mats]
                assert len(listed) == len(set(listed))
                assert set(listed) == {
                    mat.counts for mat in census
                    if pin is None or query(pinned=pin).matches(mat.root_counts)
                }
                # the enumerator hands over derived fields without
                # validating; they must equal what the validator derives
                first_of_kvec = {}
                for mat in mats:
                    checked = RootCountMatrix(host=h, counts=mat.counts)
                    assert mat.k_vector == checked.k_vector
                    assert mat.root_counts == checked.root_counts
                    first = first_of_kvec.setdefault(mat.k_vector, mat)
                    assert first is mat or first.root_counts is not mat.root_counts
            found += len(census)
        assert found

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(min_value=1, max_value=6), data=st.data())
    def test_queries_select_exactly_the_matching_rootings(self, d, data):
        h = data.draw(st.sampled_from([hyperpath(3, 2), TRIANGLE, hyperstar(3, 2)]))
        pin = (data.draw(st.integers(0, h.n - 1)), data.draw(st.integers(1, d + 1)))
        q = query(pinned=pin)
        unfiltered = {m.counts for m in enumerate_rootings(h, d)}
        filtered = {m.counts for m in enumerate_rootings(h, d, pin)}
        expected = {
            m.counts for m in enumerate_rootings(h, d) if q.matches(m.root_counts)
        }
        assert filtered == expected
        assert filtered <= unfiltered


class TestArborescences:
    def test_directed_cycle_has_one_arborescence_per_root(self):
        g = cycle_digraph(4)
        for root in g.vertices:
            assert arborescence_count(g, root) == 1

    def test_complete_bidirected_counts(self):
        # tau(t * K<->m) = t^(m-1) * m^(m-2), from the matrix-tree minor
        for m, t in [(3, 1), (3, 2), (4, 1), (2, 3)]:
            vertices = tuple(range(m))
            arcs = {
                (u, w): t for u in vertices for w in vertices if u != w
            }
            g = DirectedMultigraph(vertices=vertices, arcs=arcs)
            assert arborescence_count(g, 0) == t ** (m - 1) * m ** (m - 2)

    def test_root_independence_on_eulerian_digraphs(self):
        for d in (4, 6):
            for mat in enumerate_rootings(TRIANGLE, d):
                g = build_digraph(mat)
                counts = {arborescence_count(g, v) for v in g.vertices}
                assert len(counts) == 1

    def test_self_loops_do_not_change_the_count(self):
        g = cycle_digraph(3)
        loops = dict(g.arcs)
        loops[(1, 1)] = 5
        g_loops = DirectedMultigraph(vertices=g.vertices, arcs=loops)
        assert arborescence_count(g_loops, 0) == arborescence_count(g, 0)

    def test_unreachable_root_gives_zero(self):
        g = DirectedMultigraph(vertices=(0, 1, 2), arcs={(0, 1): 1, (1, 0): 1})
        assert arborescence_count(g, 2) == 0

    def test_argument_validation(self):
        g = cycle_digraph(3)
        with pytest.raises(VertexOutOfRange):
            arborescence_count(g, 7)
        with pytest.raises(EmptyGraph):
            arborescence_count(DirectedMultigraph(vertices=(), arcs={}), 0)
        two_cycle = {(0, 1): 1, (1, 0): 1}
        bad_digraphs = [
            ((0, 1), {**two_cycle, (1, 5): 2}),  # an arc to a non-vertex
            ((0, 1), {(0, 1): -1, (1, 0): -1}),  # negative multiplicities
            ((0, 1, 1), two_cycle),  # a repeated vertex
            ((0, 1), {(0, 1): True, (1, 0): 1}),
            ((0, 1), {(0, 1): 1.0, (1, 0): 1}),
            ((0, 1), {(0, 1, 2): 1}),  # arc keys that are not pairs
            ((0, 1), {5: 1}),
        ]
        for vertices, arcs in bad_digraphs:
            with pytest.raises(ValidationError):
                DirectedMultigraph(vertices=vertices, arcs=arcs)

    def test_single_vertex(self):
        g = DirectedMultigraph(vertices=(0,), arcs={})
        assert arborescence_count(g, 0) == 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_count(self, data):
        # sparse labels, self-loops, arcs at the root and vertices that
        # cannot reach it all occur among the draws
        vertices = tuple(data.draw(
            st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)
        ))
        arcs = data.draw(st.dictionaries(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
            st.integers(0, 2),
        ))
        root = data.draw(st.sampled_from(vertices))
        g = DirectedMultigraph(vertices=vertices, arcs=arcs)
        assert arborescence_count(g, root) == brute_force_arborescences(g, root)


class TestBareiss:
    def test_known_determinants(self):
        assert _bareiss_determinant([]) == 1
        assert _bareiss_determinant([[7]]) == 7
        assert _bareiss_determinant([[1, 2], [3, 4]]) == -2
        assert _bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert _bareiss_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert _bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_cofactor_expansion_3x3(self, rows):
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert _bareiss_determinant([list(r) for r in rows]) == expected


class TestEulerCounts:
    def test_single_edge_census(self):
        g = build_digraph(RootCountMatrix(host=hyperpath(3, 1), counts=((1, 1, 1),)))
        rep = euler_circuits_best(g)
        assert rep.arborescences == 3
        assert rep.circuits == 3
        assert rep.tours == 18

    def test_doubled_edge_census(self):
        g = build_digraph(RootCountMatrix(host=hyperpath(3, 1), counts=((2, 2, 2),)))
        rep = euler_circuits_best(g)
        assert rep.arborescences == 12
        assert rep.circuits == 2592
        assert rep.tours == 2592 * 12

    def test_directed_cycle_has_one_circuit(self):
        g = cycle_digraph(5)
        rep = euler_circuits_best(g)
        assert rep.circuits == 1
        assert rep.tours == 5
        assert euler_circuits_exhaustive(g) == 1

    def test_best_rejects_non_eulerian_digraphs(self):
        with pytest.raises(NotEulerian):
            euler_circuits_best(
                DirectedMultigraph(vertices=(0, 1), arcs={(0, 1): 1})
            )
        with pytest.raises(NotEulerian):
            euler_circuits_best(
                DirectedMultigraph(
                    vertices=(0, 1, 2, 3),
                    arcs={(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1},
                )
            )
        with pytest.raises(NotEulerian):
            euler_circuits_best(DirectedMultigraph(vertices=(0,), arcs={}))

    def test_exhaustive_arc_budget(self):
        g = build_digraph(RootCountMatrix(host=hyperpath(3, 1), counts=((3, 3, 3),)))
        with pytest.raises(LimitExceeded):
            euler_circuits_exhaustive(g, Budget(arc_limit=8))

    def test_best_matches_exhaustive_over_enumerations(self):
        hosts = [hyperpath(3, 1), hyperpath(3, 2), TRIANGLE, hyperstar(3, 2)]
        checked = 0
        for h in hosts:
            for d in range(1, 7):
                for mat in enumerate_rootings(h, d):
                    g = build_digraph(mat)
                    if g.arc_count > 16:
                        continue
                    assert euler_circuits_best(g).circuits == euler_circuits_exhaustive(g)
                    checked += 1
        assert checked >= 10


class TestContributions:
    def test_tuple_multiplicity_values(self):
        single = RootCountMatrix(host=hyperpath(3, 1), counts=((1, 1, 1),))
        assert tuple_multiplicity(single) == 1
        double = RootCountMatrix(host=hyperpath(3, 1), counts=((2, 2, 2),))
        assert tuple_multiplicity(double) == 1
        mixed = RootCountMatrix(host=hyperpath(3, 2), counts=((1, 1, 1), (1, 1, 1)))
        # the cut vertex holds one root from each edge: 2!/(1!1!) = 2
        assert tuple_multiplicity(mixed) == 2

    def test_single_edge_contribution_in_ambient_five(self):
        mat = RootCountMatrix(host=hyperpath(3, 1), counts=((1, 1, 1),))
        assert contribution(mat, 5) == Fraction(36)
        assert contribution(mat, 3) == Fraction(9)

    def test_mixed_rooting_contribution(self):
        mat = RootCountMatrix(host=hyperpath(3, 2), counts=((1, 1, 1), (1, 1, 1)))
        assert contribution(mat, 5) == Fraction(54)

    def test_ambient_must_cover_host(self):
        mat = RootCountMatrix(host=hyperpath(3, 1), counts=((1, 1, 1),))
        with pytest.raises(ValidationError):
            contribution(mat, 2)

    def test_contribution_factors_out_degrees(self):
        # denominator is the product of digraph out-degrees; sanity-check
        # against the explicit digraph for one mixed rooting
        mat = RootCountMatrix(host=hyperpath(3, 2), counts=((1, 1, 1), (1, 1, 1)))
        g = build_digraph(mat)
        denom = math.prod(g.out_degrees[v] for v in g.vertices)
        tau = arborescence_count(g, g.vertices[0])
        expected = (
            Fraction(tuple_multiplicity(mat) * mat.total * 2**5 * tau, denom)
        )
        assert contribution(mat, 5) == expected
