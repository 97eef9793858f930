"""Euler rootings of edge multisets and exact counts on their digraphs.

A rooting selects each host edge with some multiplicity and assigns
every selected instance a root vertex inside the edge.  The matrix entry
``counts[e][j]`` records how many instances of edge ``e`` are rooted at
its ``j``-th vertex.  Each rooted instance contributes an out-star of
``m - 1`` arcs from the root to the other vertices of the edge; the
union over all instances is a directed multigraph.  A rooting is kept
only when that digraph is Eulerian, which by the handshake argument is
equivalent to the two conditions enforced here:

* balance: ``m * r(v) == sum of k_e over edges containing v`` at every
  vertex, where ``r(v)`` is the number of instances rooted at ``v``;
* connectivity of the support (the sub-hypergraph of selected edges).

Enumeration over all rootings of total multiplicity ``d`` works in two
stages.  The outer stage assigns edge multiplicities ``k_e`` summing to
``d``; balance already fixes ``r(v) = (sum of incident k_e) / m``, so
any vertex whose incident sum is not divisible by ``m`` prunes the
branch as soon as its last candidate edge is decided.  The inner stage
distributes each ``k_e`` over the vertices of ``e`` against the
remaining root budgets, with exact lower and upper bounds so that no
dead ends are explored.

Counting on the resulting digraph is exact integer arithmetic: spanning
arborescences come from a principal minor of the out-degree Laplacian
evaluated with fraction-free Bareiss elimination, and Euler circuits
come from the BEST formula ``tau(D) * prod((outdeg(v) - 1)!)`` with an
independent backtracking oracle for small arc counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping

from .config import Budget, default_budget
from .errors import (
    EmptyGraph,
    InfeasibleQuery,
    LimitExceeded,
    NotEulerian,
    ValidationError,
    VertexOutOfRange,
)
from .hypergraph import UniformHypergraph, connected

if TYPE_CHECKING:  # pragma: no cover
    from .traces import LocalTraceQuery


@dataclass(frozen=True)
class RootCountMatrix:
    """A balanced, connected root assignment over a host hypergraph.

    ``counts`` is aligned with ``host.edges``: row ``e`` lists, per
    vertex position within the edge, how many instances of that edge are
    rooted there.  Row sums are the edge multiplicities ``k_e``; column
    sums per vertex are the root counts ``r(v)``.
    """

    host: UniformHypergraph
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        h = self.host
        if len(self.counts) != h.edge_count:
            raise ValidationError("counts must have one row per host edge")
        for row, edge in zip(self.counts, h.edges):
            if len(row) != h.m:
                raise ValidationError("each counts row must have m entries")
            if any(c < 0 for c in row):
                raise ValidationError("root counts must be non-negative")
        if self.total < 1:
            raise NotEulerian("a rooting must select at least one edge instance")
        degree = [0] * h.n
        for row, edge in zip(self.counts, h.edges):
            k = sum(row)
            if k:
                for v in edge:
                    degree[v] += k
        roots = self.root_counts
        for v in range(h.n):
            if degree[v] != h.m * roots.get(v, 0):
                raise NotEulerian(
                    f"vertex {v} has incident multiplicity {degree[v]} but "
                    f"root count {roots.get(v, 0)}; balance needs a ratio of m"
                )
        selected = [h.edges[i] for i in self.support]
        if not connected({v for e in selected for v in e}, selected):
            raise NotEulerian("the selected edges do not form a connected support")

    @cached_property
    def k_vector(self) -> tuple[int, ...]:
        """Edge multiplicities, aligned with the host edge list."""
        return tuple(sum(row) for row in self.counts)

    @cached_property
    def total(self) -> int:
        """Total number of selected instances, the trace order d."""
        return sum(self.k_vector)

    @cached_property
    def root_counts(self) -> dict[int, int]:
        """r(v) for every vertex rooted at least once."""
        roots: dict[int, int] = {}
        for row, edge in zip(self.counts, self.host.edges):
            for c, v in zip(row, edge):
                if c:
                    roots[v] = roots.get(v, 0) + c
        return roots

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Indices of the selected host edges."""
        return tuple(i for i, k in enumerate(self.k_vector) if k)


@dataclass(frozen=True)
class DirectedMultigraph:
    """A directed multigraph given by arc multiplicities."""

    vertices: tuple[int, ...]
    arcs: Mapping[tuple[int, int], int]

    @cached_property
    def out_degrees(self) -> dict[int, int]:
        degs = {v: 0 for v in self.vertices}
        for (u, _), mult in self.arcs.items():
            degs[u] += mult
        return degs

    @cached_property
    def in_degrees(self) -> dict[int, int]:
        degs = {v: 0 for v in self.vertices}
        for (_, w), mult in self.arcs.items():
            degs[w] += mult
        return degs

    @property
    def arc_count(self) -> int:
        return sum(self.arcs.values())

    def is_balanced(self) -> bool:
        return all(self.out_degrees[v] == self.in_degrees[v] for v in self.vertices)

    def is_weakly_connected(self) -> bool:
        return connected(self.vertices, [arc for arc, mult in self.arcs.items() if mult])


@dataclass(frozen=True)
class EulerCountReport:
    """Exact circuit, tour and arborescence counts for one digraph."""

    circuits: int
    tours: int
    arborescences: int


def enumerate_rootings(
    h: UniformHypergraph,
    d: int,
    query: "LocalTraceQuery | None" = None,
) -> Iterator[RootCountMatrix]:
    """Yield every Euler rooting of total multiplicity d, optionally
    restricted by a localized query.

    A forbidden vertex may not appear in any selected edge: its root
    count is zero and balance then forces incident multiplicity zero, so
    edges through it are dropped before enumeration.  Required vertices
    must be rooted at least once, a pinned vertex exactly the pinned
    number of times.
    """
    if d < 1:
        raise ValidationError(f"enumeration needs d >= 1, got {d}")
    required: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()
    pinned: tuple[int, int] | None = None
    if query is not None:
        query.check_vertices(h.n)
        required, forbidden, pinned = query.required, query.forbidden, query.pinned
        if pinned is not None and pinned[1] > d:
            raise InfeasibleQuery(
                f"pinned root count {pinned[1]} exceeds the trace order {d}"
            )

    m = h.m
    cand = [i for i, e in enumerate(h.edges) if not any(v in forbidden for v in e)]
    covered = {v for i in cand for v in h.edges[i]}
    if any(v not in covered for v in required):
        return
    if pinned is not None and pinned[0] not in covered:
        return
    pin_vertex, pin_sum = (pinned[0], m * pinned[1]) if pinned else (-1, -1)

    edges = [h.edges[i] for i in cand]
    count = len(edges)
    last_at = {}
    for pos, e in enumerate(edges):
        for v in e:
            last_at[v] = pos
    finalize = [[] for _ in range(count)]
    for v, pos in last_at.items():
        finalize[pos].append(v)
    vsum = [0] * h.n
    kvec = [0] * count

    def finalize_ok(pos: int) -> bool:
        for v in finalize[pos]:
            s = vsum[v]
            if s % m:
                return False
            if s == 0 and v in required:
                return False
            if v == pin_vertex and s != pin_sum:
                return False
        return True

    def assign(pos: int, remaining: int) -> Iterator[RootCountMatrix]:
        if pos == count - 1:
            choices = (remaining,)
        else:
            choices = range(remaining + 1)
        for k in choices:
            kvec[pos] = k
            if k:
                for v in edges[pos]:
                    vsum[v] += k
            ok = finalize_ok(pos)
            if ok and pin_vertex >= 0 and vsum[pin_vertex] > pin_sum:
                ok = False
            if ok:
                if pos == count - 1:
                    yield from finish()
                else:
                    yield from assign(pos + 1, remaining - k)
            if k:
                for v in edges[pos]:
                    vsum[v] -= k
        kvec[pos] = 0

    def finish() -> Iterator[RootCountMatrix]:
        chosen = [p for p in range(count) if kvec[p]]
        support = [edges[p] for p in chosen]
        if not connected({v for e in support for v in e}, support):
            return
        rem = [0] * h.n
        for v in range(h.n):
            rem[v] = vsum[v] // m
        stages = [(edges[p], kvec[p], cand[p]) for p in chosen]
        cap_after = [dict() for _ in range(len(stages) + 1)]
        for i in range(len(stages) - 1, -1, -1):
            cap = dict(cap_after[i + 1])
            everts, k, _ = stages[i]
            for v in everts:
                cap[v] = cap.get(v, 0) + k
            cap_after[i] = cap
        rows: dict[int, tuple[int, ...]] = {}

        def distribute(stage: int) -> Iterator[RootCountMatrix]:
            if stage == len(stages):
                counts = tuple(
                    rows.get(i, (0,) * m) for i in range(h.edge_count)
                )
                yield RootCountMatrix(host=h, counts=counts)
                return
            everts, k, edge_index = stages[stage]
            future = cap_after[stage + 1]
            lows = [max(0, rem[v] - future.get(v, 0)) for v in everts]
            highs = [min(rem[v], k) for v in everts]
            suffix_low = [0] * (m + 1)
            suffix_high = [0] * (m + 1)
            for j in range(m - 1, -1, -1):
                suffix_low[j] = suffix_low[j + 1] + lows[j]
                suffix_high[j] = suffix_high[j + 1] + highs[j]
            row = [0] * m

            def split(j: int, left: int) -> Iterator[RootCountMatrix]:
                if j == m:
                    rows[edge_index] = tuple(row)
                    yield from distribute(stage + 1)
                    del rows[edge_index]
                    return
                lo = max(lows[j], left - suffix_high[j + 1])
                hi = min(highs[j], left - suffix_low[j + 1])
                for c in range(lo, hi + 1):
                    row[j] = c
                    rem[everts[j]] -= c
                    yield from split(j + 1, left - c)
                    rem[everts[j]] += c
                row[j] = 0

            yield from split(0, k)

        yield from distribute(0)

    if count == 0:
        return
    yield from assign(0, d)


def build_digraph(mat: RootCountMatrix) -> DirectedMultigraph:
    """The union of rooted out-stars: one arc root -> other vertex per
    instance, accumulated as multiplicities."""
    arcs: dict[tuple[int, int], int] = {}
    for row, edge in zip(mat.counts, mat.host.edges):
        for c, u in zip(row, edge):
            if c:
                for w in edge:
                    if w != u:
                        arcs[(u, w)] = arcs.get((u, w), 0) + c
    vertices = tuple(sorted(mat.root_counts))
    return DirectedMultigraph(vertices=vertices, arcs=arcs)


def arborescence_count(g: DirectedMultigraph, root: int) -> int:
    """Spanning trees oriented so every vertex reaches the root, via the
    principal minor of the out-degree Laplacian at the root."""
    if not g.vertices:
        raise EmptyGraph("arborescence count needs at least one vertex")
    if root not in g.vertices:
        raise VertexOutOfRange(f"root {root} is not a digraph vertex")
    others = [v for v in g.vertices if v != root]
    if not others:
        return 1
    index = {v: i for i, v in enumerate(others)}
    size = len(others)
    lap = [[0] * size for _ in range(size)]
    for v, i in index.items():
        lap[i][i] = g.out_degrees[v]
    for (u, w), mult in g.arcs.items():
        if u == w:
            # self loops cancel: they raise the out-degree and the
            # diagonal adjacency entry by the same amount
            if u in index:
                lap[index[u]][index[u]] -= mult
            continue
        if u in index and w in index:
            lap[index[u]][index[w]] -= mult
    return _bareiss_determinant(lap)


def _bareiss_determinant(mat: list[list[int]]) -> int:
    """Fraction-free integer determinant; mutates its argument."""
    size = len(mat)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, size):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, size):
            row_i = mat[i]
            row_k = mat[k]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * mat[-1][-1]


def _check_eulerian(g: DirectedMultigraph) -> None:
    if not g.vertices:
        raise EmptyGraph("an Eulerian digraph needs at least one vertex")
    if g.arc_count < 1:
        raise NotEulerian("an Eulerian circuit needs at least one arc")
    if not g.is_balanced():
        raise NotEulerian("in-degree and out-degree differ at some vertex")
    if not g.is_weakly_connected():
        raise NotEulerian("the digraph is not connected")


def euler_circuits_best(g: DirectedMultigraph) -> EulerCountReport:
    """Circuit and tour counts from the BEST formula."""
    _check_eulerian(g)
    tau = arborescence_count(g, g.vertices[0])
    circuits = tau
    for v in g.vertices:
        circuits *= math.factorial(g.out_degrees[v] - 1)
    return EulerCountReport(
        circuits=circuits, tours=circuits * g.arc_count, arborescences=tau
    )


def euler_circuits_exhaustive(g: DirectedMultigraph, budget: Budget | None = None) -> int:
    """Backtracking circuit count, for cross-checking the BEST formula.

    Parallel arc copies are distinguishable; a circuit is a rotation
    class of arc sequences, counted here as the number of Euler tours
    that start with one fixed copy of the least arc.
    """
    budget = budget or default_budget()
    _check_eulerian(g)
    if g.arc_count > budget.arc_limit:
        raise LimitExceeded(
            f"{g.arc_count} arcs exceed the exhaustive oracle limit "
            f"of {budget.arc_limit}"
        )
    remaining = {arc: mult for arc, mult in g.arcs.items() if mult}
    heads: dict[int, list[int]] = {v: [] for v in g.vertices}
    for (u, w) in sorted(remaining):
        heads[u].append(w)
    start_tail, start_head = min(remaining)
    remaining[(start_tail, start_head)] -= 1

    def walk(current: int, left: int) -> int:
        if left == 0:
            return 1 if current == start_tail else 0
        total = 0
        for w in heads[current]:
            mult = remaining[(current, w)]
            if mult:
                remaining[(current, w)] = mult - 1
                total += mult * walk(w, left - 1)
                remaining[(current, w)] = mult
        return total

    return walk(start_head, g.arc_count - 1)


def tuple_multiplicity(mat: RootCountMatrix) -> int:
    """Number of root-sorted instance sequences realizing the matrix:
    the product over vertices of r(v)! divided by the factorials of the
    per-edge root counts at v."""
    value = 1
    for r in mat.root_counts.values():
        value *= math.factorial(r)
    for row in mat.counts:
        for c in row:
            if c > 1:
                value //= math.factorial(c)
    return value


def contribution_parts(mat: RootCountMatrix, ambient_n: int) -> tuple[int, int]:
    """Numerator and denominator of the matrix contribution to the
    order-d trace of a host embedded on ambient_n vertices."""
    if ambient_n < mat.host.n:
        raise ValidationError(
            f"ambient vertex count {ambient_n} is below the host's {mat.host.n}"
        )
    m = mat.host.m
    g = build_digraph(mat)
    tau = arborescence_count(g, g.vertices[0])
    denominator = 1
    for r in mat.root_counts.values():
        denominator *= (m - 1) * r
    numerator = (
        tuple_multiplicity(mat) * mat.total * (m - 1) ** ambient_n * tau
    )
    return numerator, denominator


def contribution(mat: RootCountMatrix, ambient_n: int) -> Fraction:
    """Exact weight of one rooting: tuple multiplicity times
    d * (m-1)^ambient_n * arborescences / prod of out-degrees."""
    numerator, denominator = contribution_parts(mat, ambient_n)
    return Fraction(numerator, denominator)
