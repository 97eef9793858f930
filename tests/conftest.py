"""Shared helpers for the test suite.

The expensive fixtures here are module-level functions with caches, not
pytest fixtures, so both the unit tests and the acceptance suite can
reuse them without re-deriving anything.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations

from hypothesis import strategies as st

from hypertrace import (
    LocalTraceQuery,
    UniformHypergraph,
    canonical_form,
    is_connected,
    new_hypergraph,
    permute_vertices,
)
from hypertrace.euler import contribution_parts, enumerate_rootings


@lru_cache(maxsize=None)
def connected_graph_classes(max_n: int) -> tuple[UniformHypergraph, ...]:
    """One representative per isomorphism class of connected simple
    graphs on at most ``max_n`` vertices (2-uniform hypergraphs)."""
    out: list[UniformHypergraph] = []
    for n in range(1, max_n + 1):
        if n == 1:
            out.append(new_hypergraph(2, 1, []))
            continue
        pairs = list(combinations(range(n), 2))
        seen: set[bytes] = set()
        for k in range(n - 1, len(pairs) + 1):
            for subset in combinations(pairs, k):
                h = new_hypergraph(2, n, subset)
                if not is_connected(h):
                    continue
                key = canonical_form(h)
                if key not in seen:
                    seen.add(key)
                    out.append(h)
    return tuple(out)


def brute_force_isomorphic(h1: UniformHypergraph, h2: UniformHypergraph) -> bool:
    """Ground-truth isomorphism test by trying every vertex bijection.

    Only usable for tiny instances; the canonical-form tests compare
    against this.
    """
    if (h1.m, h1.n, h1.edge_count) != (h2.m, h2.n, h2.edge_count):
        return False
    target = set(h2.edges)
    for perm in permutations(range(h1.n)):
        if all(tuple(sorted(perm[v] for v in e)) in target for e in h1.edges):
            return True
    return False


def complete(m: int, n: int, less: tuple = ()) -> UniformHypergraph:
    """The complete m-uniform hypergraph on n vertices less the edges listed."""
    return new_hypergraph(m, n, [e for e in combinations(range(n), m) if e not in less])


PETERSEN = new_hypergraph(
    2, 10,
    [(i, (i + 1) % 5) for i in range(5)]  # outer 5-cycle
    + [(i, i + 5) for i in range(5)]  # spokes
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],  # inner pentagram
)

# 2-connected hosts and the orders of their automorphism groups
SYMMETRIC_HOSTS: dict[str, tuple[UniformHypergraph, int]] = {
    "k4": (complete(2, 4), 24),
    "k5": (complete(2, 5), 120),
    "k5-e": (complete(2, 5, ((0, 1),)), 12),
    "k6-e": (complete(2, 6, ((0, 1),)), 48),
    "k5-3": (complete(3, 5), 120),
    "loose-3-cycle": (new_hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]), 6),
    "petersen": (PETERSEN, 120),
    "asymmetric": (new_hypergraph(2, 6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                                         (2, 5), (4, 5)]), 1),
}

# relabelings on which the enumerator, reading only the labeling's
# generators, reduces by less than the whole group: on the Petersen
# graph the generators fixing 0 and 1 are none, where the group's
# stabilizer moves 2 to 7, and on the octahedron the generators fixing
# some root-count vectors generate less than its stabilizer
WEAK_GENERATOR_HOSTS = {
    "petersen-relabeled": new_hypergraph(
        2, 10, [(0, 6), (0, 8), (0, 9), (1, 4), (1, 5), (1, 9), (2, 3), (2, 4), (2, 6), (3, 7),
                (3, 9), (4, 8), (5, 6), (5, 7), (7, 8)]),
    "octahedron-relabeled": new_hypergraph(
        2, 6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5),
               (3, 4), (4, 5)]),
}

# the highest order the orbit-reduction tests enumerate each host to
ORBIT_ORDERS = {"k4": 8, "k5": 8, "k5-e": 8, "k6-e": 7, "k5-3": 7, "loose-3-cycle": 9,
                "petersen": 8, "asymmetric": 8}


def unpaired_table(h: UniformHypergraph, d: int) -> dict[tuple[int, ...], int]:
    """The rooting table summed over every rooting, each weighed once,
    keyed by the root counts at every vertex."""
    table: dict[tuple[int, ...], int] = {}
    for mat in enumerate_rootings(h, d):
        key = tuple(mat.root_counts.get(v, 0) for v in h.vertices)
        table[key] = table.get(key, 0) + contribution_parts(mat, h.n)
    return table


def matches(q: LocalTraceQuery, root_counts: dict[int, int]) -> bool:
    """Whether a rooting with these root counts meets the query: every
    required vertex rooted, no forbidden one, and the pin's count."""
    return (all(root_counts.get(v, 0) for v in q.required)
            and not any(root_counts.get(v, 0) for v in q.forbidden)
            and (q.pinned is None or root_counts.get(q.pinned[0], 0) == q.pinned[1]))


def relabelings(
    h: UniformHypergraph, count: int, seed: int = 0
) -> list[tuple[UniformHypergraph, list[int]]]:
    """``count`` random relabelings of h, each with its permutation: the
    new id of vertex v is ``perm[v]``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        perm = list(range(h.n))
        rng.shuffle(perm)
        out.append((permute_vertices(h, perm), perm))
    return out


def brute_force_automorphisms(h: UniformHypergraph) -> list[tuple[int, ...]]:
    """Every automorphism of h, as the tuple of the images of 0..n-1,
    found by extending a vertex map one vertex at a time and checking
    each edge once its vertices are all mapped."""
    edges = set(h.edges)
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(h.n)]
    for e in h.edges:
        closing[max(e)].append(e)
    image: list[int] = []
    found = []

    def extend(v: int) -> None:
        if v == h.n:
            found.append(tuple(image))
            return
        for w in range(h.n):
            if w in image:
                continue
            image.append(w)
            if all(tuple(sorted(image[u] for u in e)) in edges for e in closing[v]):
                extend(v + 1)
            image.pop()

    extend(0)
    return found


def closure(generators: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """Every element of the permutation group on 0..n-1 that the
    generators generate, by closing the identity under them."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        x = todo.pop()
        for g in generators:
            y = tuple(g[v] for v in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def group_order(generators: list[tuple[int, ...]], n: int) -> int:
    """The order of the permutation group on 0..n-1 that the generators
    generate."""
    return len(closure(generators, n))


@st.composite
def dense_hosts(draw):
    """A relabeled 2-connected host with more edges than vertices: a
    cycle (m = 2) or the triples of consecutive vertices around a cycle
    (m = 3), plus extra edges."""
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(m + 2, 6))
    ring = [tuple(sorted((i + j) % n for j in range(m))) for i in range(n)]
    rest = [e for e in combinations(range(n), m) if e not in ring]
    extra = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=min(4, len(rest)),
                          unique=True))
    perm = draw(st.permutations(range(n)))
    return new_hypergraph(m, n, [[perm[v] for v in e] for e in ring + extra])
