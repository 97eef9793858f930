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
    tuple_multiplicity,
)
import hypertrace.euler as euler_module
import hypertrace.traces as traces_module
from hypertrace._symmetry import _Group, _Orbits
from hypertrace.euler import _balanced_multiplicities, _bareiss_determinant, contribution_parts
from hypertrace.hypergraph import _labeling, block_tree

from conftest import (
    ORBIT_ORDERS,
    SYMMETRIC_HOSTS,
    WEAK_GENERATOR_HOSTS,
    brute_force_automorphisms,
    complete,
    dense_hosts,
    relabelings,
    unpaired_table,
)

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

    def test_entries_must_be_integers_in_tuples(self):
        # halves passed the balance check and died in contribution with a
        # TypeError; bools were read as counts; list rows made the frozen
        # matrix unhashable
        bad = [
            ((0.5, 0.5),) * 3,
            ((1.0, 1.0), (0, 0), (0, 0)),
            ((True, True), (0, 0), (0, 0)),
            ((1, 1), (False, 0), (0, 0)),
            ([1, 1], (0, 0), (0, 0)),
            [(1, 1), (0, 0), (0, 0)],
            (("1", "1"), (0, 0), (0, 0)),
        ]
        for counts in bad:
            with pytest.raises(ValidationError):
                RootCountMatrix(host=TRIANGLE, counts=counts)
        mat = RootCountMatrix(host=TRIANGLE, counts=((1, 1), (0, 0), (0, 0)))
        assert hash(mat) == hash(RootCountMatrix(host=TRIANGLE, counts=mat.counts))


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

    def test_rejects_orders_that_are_not_integers(self):
        # True enumerated order 1; 2.5 and "3" died with TypeError
        k4 = new_hypergraph(2, 4, combinations(range(4), 2))
        for d in (True, 2.5, "3", -1):
            with pytest.raises(ValidationError):
                list(enumerate_rootings(k4, d))

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

    @pytest.mark.parametrize("name", sorted(CENSUS_HOSTS))
    def test_enumeration_matches_brute_force_census(self, name):
        # completeness and uniqueness: every valid rooting appears once
        h = CENSUS_HOSTS[name]
        found = 0
        for d in range(1, 7):
            census = brute_force_census(h, d)
            # each weight is an integer over d!, which the trace sums rely on
            for mat in census:
                assert (contribution(mat, h.n) * math.factorial(d)).denominator == 1
            mats = list(enumerate_rootings(h, d))
            listed = [mat.counts for mat in mats]
            assert len(listed) == len(set(listed))
            assert set(listed) == {mat.counts for mat in census}
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


PAIRED_HOSTS = {
    "triangle": TRIANGLE,
    "c4": new_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "k4": new_hypergraph(2, 4, combinations(range(4), 2)),
    "k5-e": new_hypergraph(2, 5, [e for e in combinations(range(5), 2) if e != (0, 1)]),
}


def reversed_counts(counts):
    return tuple(row[::-1] for row in counts)


def reduced(h, d, generators=()):
    """The enumerator's reduced sequence under the group the generators
    generate, with the memo it filled."""
    orbits = _Orbits(_Group(h, generators))
    return list(enumerate_rootings(h, d, orbits=orbits)), orbits


class TestReversalPairs:
    @pytest.mark.parametrize("name", sorted(PAIRED_HOSTS))
    def test_the_reversal_of_a_rooting_is_a_rooting_of_equal_weight(self, name):
        h = PAIRED_HOSTS[name]
        for d in range(1, 9):
            mats = list(enumerate_rootings(h, d))
            listed = {mat.counts for mat in mats}
            for mat in mats:
                # the validating constructor raises on a non-rooting
                rev = RootCountMatrix(host=h, counts=reversed_counts(mat.counts))
                assert rev.counts in listed
                assert rev.k_vector == mat.k_vector
                assert rev.root_counts == mat.root_counts
                for ambient in (h.n, h.n + 2):
                    assert contribution_parts(rev, ambient) == contribution_parts(mat, ambient)
                g, g_rev = build_digraph(mat), build_digraph(rev)
                assert g_rev.arcs == {(w, u): c for (u, w), c in g.arcs.items()}
                assert (euler_circuits_best(g_rev).arborescences
                        == euler_circuits_best(g).arborescences)

    @pytest.mark.parametrize("name", sorted(PAIRED_HOSTS))
    def test_pairing_yields_one_rooting_of_each_reversal_pair(self, name):
        h = PAIRED_HOSTS[name]
        for d in range(1, 9):
            full = [mat.counts for mat in enumerate_rootings(h, d)]
            mats, _ = reduced(h, d)
            paired = [mat.counts for mat in mats]
            kept = set(paired)
            reversals = {reversed_counts(c) for c in paired}
            assert len(kept) == len(paired)
            assert kept | reversals == set(full)
            assert kept & reversals == {c for c in paired if reversed_counts(c) == c}
            # in the order of the full enumeration, each with more roots
            # first in its first row of unequal entries
            assert [c for c in full if c in kept] == paired
            for c in paired:
                unequal = [row for row in c if row[0] != row[1]]
                assert not unequal or unequal[0][0] > unequal[0][1]
            for mat in mats:
                checked = RootCountMatrix(host=h, counts=mat.counts)
                assert mat.k_vector == checked.k_vector
                assert mat.root_counts == checked.root_counts

    def test_pairing_changes_nothing_on_three_uniform_hosts(self):
        hosts = [
            (new_hypergraph(3, 5, combinations(range(5), 3)), 6),
            (CENSUS_HOSTS["loose-3-cycle"], 9),
        ]
        for h, d_max in hosts:
            for d in range(1, d_max + 1):
                full = list(enumerate_rootings(h, d))
                paired, _ = reduced(h, d)
                assert [m.counts for m in paired] == [m.counts for m in full]
                assert [(m.k_vector, m.root_counts) for m in paired] == [
                    (m.k_vector, m.root_counts) for m in full]

    def test_pairing_is_keyword_only(self):
        with pytest.raises(TypeError):
            enumerate_rootings(TRIANGLE, 4, _Orbits(_Group(TRIANGLE, [])))


def root_vector(h, mat):
    return tuple(mat.root_counts.get(v, 0) for v in h.vertices)


def least_vectors(h):
    """A memoized test of whether a vector over h's vertices is the
    least of its orbit under the whole automorphism group of h."""
    group = brute_force_automorphisms(h)
    least = {}

    def is_least(r):
        if r not in least:
            least[r] = r == min(tuple(r[a[v]] for v in h.vertices) for a in group)
        return least[r]

    return is_least


def check_reduced(h, d, generators, is_least):
    """The reduced sequence is the paired one at the k-vectors it keeps,
    every one at a root-count vector least under the whole group, and
    with the memo's orbits and sizes it gives the unreduced table."""
    got, orbits = reduced(h, d, generators)
    kept = {mat.k_vector for mat in got}
    paired, _ = reduced(h, d)
    assert [m.counts for m in got] == [m.counts for m in paired if m.k_vector in kept]
    assert [(m.k_vector, m.root_counts) for m in got] == [
        (m.k_vector, m.root_counts) for m in paired if m.k_vector in kept]
    assert all(is_least(root_vector(h, mat)) for mat in got)
    assert traces_module._enumerate_table(h, d, orbits.group) == unpaired_table(h, d)
    return got, paired


class TestAutomorphismOrbits:
    """With automorphisms the enumerator yields the rootings whose
    root-count vector is the least of its orbit, in the order of the
    full enumeration."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_HOSTS))
    def test_yields_the_rootings_at_least_vectors_of_their_orbits(self, name):
        h, _ = SYMMETRIC_HOSTS[name]
        is_least = least_vectors(h)
        generators = _labeling(h)[1]
        for d in range(1, ORBIT_ORDERS[name] + 1):
            got, paired = check_reduced(h, d, generators, is_least)
            if h.edge_count <= h.n:  # the free route keeps every k-vector
                assert [m.counts for m in got] == [
                    m.counts for m in paired if is_least(root_vector(h, m))]

    def test_without_automorphisms_the_sequence_is_unchanged(self):
        k5 = complete(2, 5)
        identity = [tuple(k5.vertices)]
        for d in range(1, 7):
            paired = [m.counts for m in reduced(k5, d)[0]]
            # the identity alone takes the targeted route
            assert [m.counts for m in reduced(k5, d, identity)[0]] == paired
        # the counts of K5 to d=8 before the keyword existed
        assert sum(1 for d in range(1, 9) for _ in enumerate_rootings(k5, d)) == 6394
        assert sum(len(reduced(k5, d)[0]) for d in range(1, 9)) == 3587


class TestGeneratorBaseOrbits:
    """The basic orbits of the base 0..n-1 are read from the labeling's
    generators: orbit j, of j under the generators fixing 0..j-1, lies
    in the group's basic orbit, and orbit 0 is the group's orbit of 0."""

    HOSTS = {f"{name}-{i}": copy for name, (h, _) in SYMMETRIC_HOSTS.items()
             for i, copy in enumerate([h] + [c for c, _ in relabelings(h, 2)])}
    HOSTS["petersen-relabeled"] = WEAK_GENERATOR_HOSTS["petersen-relabeled"]

    @pytest.mark.parametrize("name", sorted(HOSTS))
    def test_each_orbit_lies_in_the_brute_force_basic_orbit(self, name):
        h = self.HOSTS[name]
        group = brute_force_automorphisms(h)
        orbits = _Group(h, _labeling(h)[1]).base_orbits
        assert set(orbits[0]) == {a[0] for a in group}
        strict = []
        for j, orbit in enumerate(orbits):
            basic = {a[j] for a in group if a[:j] == tuple(range(j))}
            assert j in orbit and set(orbit) <= basic
            if set(orbit) < basic:
                strict.append(j)
        if name == "petersen-relabeled":
            # the group moves 2 to 7 fixing 0 and 1; no generator does
            assert strict == [2] and orbits[2] == (2,)

    def test_complete_graphs_without_listing_the_group(self):
        for n in (7, 8):
            h = complete(2, n)
            orbits = _Group(h, _labeling(h)[1]).base_orbits
            assert [len(o) for o in orbits] == list(range(n, 0, -1))


def balanced_compositions(h, d):
    """Every k-vector over h's edges summing to d whose load at each
    vertex is divisible by m, with its loads, in lexicographic order:
    every composition of d over the edges tried."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for k in range(total + 1):
            for rest in compositions(total - k, parts - 1):
                yield (k, *rest)

    found = []
    for k_vector in compositions(d, h.edge_count):
        load = [sum(k for k, e in zip(k_vector, h.edges) if v in e) for v in h.vertices]
        if all(s % h.m == 0 for s in load):
            found.append((k_vector, load))
    return found


class TestTargetedStageOne:
    """Stage one at a target vector yields the free search's k-vectors
    with those loads, in the same order, and the free search yields
    every balanced composition."""

    @pytest.mark.parametrize("name", ["k4", "k5-e", "k5-3", "loose-3-cycle", "asymmetric"])
    def test_full_targets_select_the_free_search(self, name):
        h, _ = SYMMETRIC_HOSTS[name]
        m, n = h.m, h.n
        for d in range(1, 7):
            free = list(_balanced_multiplicities(h.edges, n, m, d, [-1] * n))
            assert free == balanced_compositions(h, d)
            by_roots = {}
            for k_vector, load in free:
                by_roots.setdefault(tuple(s // m for s in load), []).append(k_vector)
            # every balanced vector, and some with no k-vector at all
            targets = set(by_roots) | {(d,) + (0,) * (n - 1), (0,) * (n - 1) + (d,)}
            for r in targets:
                got = list(_balanced_multiplicities(h.edges, n, m, d, r))
                assert [k for k, _ in got] == by_roots.get(r, [])
                assert all(load == [m * t for t in r] for _, load in got)

    @pytest.mark.parametrize("name", ["k4", "k5-3", "loose-3-cycle", "asymmetric"])
    def test_one_target_is_the_pin(self, name):
        h, _ = SYMMETRIC_HOSTS[name]
        m, n = h.m, h.n
        for d in range(1, 7):
            free = list(_balanced_multiplicities(h.edges, n, m, d, [-1] * n))
            assert free == balanced_compositions(h, d)
            for v, t in product(range(n), range(1, d + 1)):
                target = [-1] * n
                target[v] = t
                got = list(_balanced_multiplicities(h.edges, n, m, d, target))
                assert got == [(k, load) for k, load in free if load[v] == m * t]


class TestTargetedRoute:
    @settings(max_examples=50, deadline=None)
    @given(h=dense_hosts(), data=st.data())
    def test_reduced_sequence_is_the_full_one_at_least_vectors(self, h, data):
        assert h.edge_count > h.n and len(block_tree(h)) == 1
        d = data.draw(st.integers(1, 6 if h.m == 2 else 5))
        check_reduced(h, d, _labeling(h)[1], least_vectors(h))

    def test_a_vertex_on_no_edge_is_never_rooted(self):
        h = new_hypergraph(2, 6, combinations(range(5), 2))
        is_least = least_vectors(h)
        for d in range(1, 7):
            got, _ = check_reduced(h, d, _labeling(h)[1], is_least)
            assert all(5 not in mat.root_counts for mat in got)


def described(mats):
    return [(mat.counts, mat.k_vector, mat.root_counts) for mat in mats]


class TestSingleEdgeRooting:
    """Given a memo, a host of one edge yields its one rooting without a
    search: balance reads m * r(v) = k_e = d at each vertex of the edge,
    so at an order m divides every vertex is rooted d/m times."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_the_reduced_rooting_is_the_oracle_rooting(self, m):
        h = hyperpath(m, 1)
        for d in range(1, 4 * m + 2):
            got, orbits = reduced(h, d)
            assert described(got) == described(enumerate_rootings(h, d))
            assert len(got) == (d % m == 0)
            assert traces_module._enumerate_table(h, d, orbits.group) == unpaired_table(h, d)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_isolated_vertices_under_the_labeling_generators(self, m):
        h = new_hypergraph(m, m + 2, [range(1, m + 1)])  # vertices 0 and m + 1 on no edge
        generators = _labeling(h)[1]
        assert generators
        for d in range(1, 3 * m + 2):
            got, orbits = reduced(h, d, generators)
            assert described(got) == described(enumerate_rootings(h, d))
            assert traces_module._enumerate_table(h, d, orbits.group) == unpaired_table(h, d)

    def test_the_reduced_rooting_runs_no_stage_one(self, monkeypatch):
        def searched(*args):
            raise AssertionError("stage one ran")

        monkeypatch.setattr(euler_module, "_balanced_multiplicities", searched)
        h = hyperpath(3, 1)
        assert [mat.counts for mat in reduced(h, 6)[0]] == [((2, 2, 2),)]
        assert reduced(h, 7)[0] == []
        with pytest.raises(AssertionError, match="stage one ran"):
            list(enumerate_rootings(h, 6))


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
        # True and 1.0 were read as vertex 1
        for root in (True, 1.0, "1", None):
            with pytest.raises(ValidationError):
                arborescence_count(g, root)
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
            ((0, "a"), {}),  # vertices that are not integers, which no
            ((True, 2), {}),  # root could name
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

    def test_ambient_must_be_an_integer(self):
        # 4.0 and 4.5 returned a float, "9" died with TypeError and True
        # was compared as 1
        mat = RootCountMatrix(host=new_hypergraph(2, 4, [(0, 1)]), counts=((1, 1),))
        assert contribution_parts(mat, 4) == 4
        for ambient in (4.0, 4.5, "9", True, None, Fraction(4)):
            for weigh in (contribution_parts, contribution):
                with pytest.raises(ValidationError):
                    weigh(mat, ambient)

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
