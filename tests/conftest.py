"""Shared helpers for the test suite.

The expensive fixtures here are module-level functions with caches, not
pytest fixtures, so both the unit tests and the acceptance suite can
reuse them without re-deriving anything.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, prod

from hypothesis import strategies as st

from hypertrace import (
    Budget,
    LimitExceeded,
    LocalTraceQuery,
    UniformHypergraph,
    canonical_form,
    hyperpath,
    is_connected,
    new_hypergraph,
    permute_vertices,
)
from hypertrace.config import default_budget
from hypertrace.euler import contribution_parts, enumerate_rootings
from hypertrace.hypergraph import _attach_pendant_edge, _check_generator_args


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


def enumerate_hypertrees_oracle(
    m: int, z: int, budget: Budget | None = None
) -> list[UniformHypergraph]:
    """One representative per isomorphism class of m-uniform hypertrees
    with z edges, generated by attaching a pendant edge at every vertex
    of every smaller hypertree and deduplicating by canonical form."""
    budget = budget or default_budget()
    _check_generator_args(m, z)
    if z > budget.tree_edge_limit:
        raise LimitExceeded(
            f"hypertree enumeration with z={z} exceeds the configured limit "
            f"of {budget.tree_edge_limit} edges"
        )
    level: dict[bytes, UniformHypergraph] = {}
    seed = hyperpath(m, 1)
    level[canonical_form(seed, budget)] = seed
    for _ in range(z - 1):
        grown: dict[bytes, UniformHypergraph] = {}
        for h in level.values():
            for v in range(h.n):
                g = _attach_pendant_edge(h, v)
                grown.setdefault(canonical_form(g, budget), g)
        level = grown
    return [level[key] for key in sorted(level)]


def morozov_shakirov_trace(h: UniformHypergraph, d: int) -> Fraction:
    """Tr_d of h's adjacency tensor from the Morozov-Shakirov trace of a
    polynomial system, as restated for tensors by Hu, Huang, Ling & Qi
    (2013) and Shao, Qi & Hu (2015), with Z an n x n matrix of variables:

        Tr_d = (m-1)^(n-1) * sum over d_1 + ... + d_n = d of
               prod_i L_i^(d_i) / (d_i * (m-1))!  applied to  tr(Z^(d(m-1))),

    where L_i = sum over the edges e through i of prod over u in e - i
    of d/dz_iu.  Only the z_iu with i and u on a common edge are ever
    differentiated, so tr(Z^N) is expanded over those arcs alone, by
    counting closed walks.  A monomial z^C contributes its count times
    prod C! times the coefficient of d^(C_i) in L_i^(d_i), over
    (d_i * (m-1))!, for each row i, where d_i is the row sum of C over
    m - 1 (none if that is not whole).  No rooting, arborescence count
    or determinant is involved."""
    m, n, N = h.m, h.n, d * (h.m - 1)
    if d == 0:
        return Fraction(n * (m - 1) ** (n - 1))
    arcs = sorted({(i, u) for e in h.edges for i in e for u in e if u != i})
    out: dict[int, list[tuple[int, int]]] = {}
    for j, (i, u) in enumerate(arcs):
        out.setdefault(i, []).append((u, (N + 1) ** j))  # arc j adds 1 at digit j
    # A monomial's closed walks number N / r_v times those from a vertex v
    # its arcs leave r_v > 0 times, by rotation, so each is walked only
    # from its least vertex, on the vertices from there on.
    monomials: dict[int, tuple[int, int]] = {}  # arc counts in base N + 1 -> (v, walks)
    for start in out:
        walks = {start: {0: 1}}
        for _ in range(N):
            grown: dict[int, dict[int, int]] = {}
            for v, codes in walks.items():
                for u, unit in out[v]:
                    if u >= start:
                        to = grown.setdefault(u, {})
                        for code, count in codes.items():
                            to[code + unit] = to.get(code + unit, 0) + count
            walks = grown
        monomials.update((code, (start, count)) for code, count in walks.get(start, {}).items())

    through = {i: [[u for u in e if u != i] for e in h.edges if i in e] for i in out}

    def covers(edges: list[list[int]], left: dict[int, int]) -> Fraction:
        # the sum of 1/prod k_e! over the multiplicities k_e of the edges
        # whose sets e - i cover each u left[u] times: times d_i!, the
        # coefficient of prod_u d/dz_iu^left[u] in L_i^(d_i)
        if not edges:
            return Fraction(not any(left.values()))
        total, k, left = Fraction(0), 0, dict(left)
        while True:
            total += covers(edges[1:], left) / factorial(k)
            if not all(left[u] for u in edges[0]):
                return total
            for u in edges[0]:
                left[u] -= 1
            k += 1

    total = Fraction(0)
    for code, (start, count) in monomials.items():
        counts = {}
        for arc in arcs:
            code, counts[arc] = divmod(code, N + 1)
        rows: dict[int, dict[int, int]] = {}
        for (i, u), c in counts.items():
            rows.setdefault(i, {})[u] = c
        term = Fraction(count * N * prod(map(factorial, counts.values())), sum(rows[start].values()))
        for i, row in rows.items():
            r = sum(row.values())
            if r % (m - 1):
                term = Fraction(0)
                break
            term *= covers(through[i], row) * factorial(r // (m - 1)) / factorial(r)
        total += term
    return total * (m - 1) ** (n - 1)


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
