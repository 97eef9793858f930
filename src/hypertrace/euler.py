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

:class:`RootCountMatrix` built by hand derives ``k_vector`` and
``root_counts`` in the same pass over the rows that validates them.  The
enumerator below yields trusted matrices instead: it builds every
rooting balanced and connected, so it skips both checks and hands over
the two derived fields, computed once per k-vector.

Enumeration over all rootings of total multiplicity ``d`` works in two
stages.  The first assigns edge multiplicities ``k_e`` summing to
``d``; balance already fixes ``r(v) = (sum of incident k_e) / m``, so
any vertex whose incident sum is not divisible by ``m`` prunes the
branch as soon as its last candidate edge is decided.  The second
distributes each selected ``k_e`` over the vertices of ``e`` against
the remaining root budgets.  It keeps the incident sums in one load
array and takes each edge's ``k_e`` out of it on entry, so the array
then holds exactly what the later edges can still root at each vertex;
that gives exact lower and upper bounds and no dead ends.  The root
budgets before stage two are the root counts of every rooting of that
k-vector.

Counting on the resulting digraph is exact integer arithmetic: spanning
arborescences come from a principal minor of the out-degree Laplacian
evaluated with fraction-free Bareiss elimination, and Euler circuits
come from the BEST formula ``tau(D) * prod((outdeg(v) - 1)!)`` with an
independent backtracking oracle for small arc counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .config import Budget, default_budget
from .errors import (
    EmptyGraph,
    LimitExceeded,
    NotEulerian,
    ValidationError,
    VertexOutOfRange,
)
from .hypergraph import Edge, UniformHypergraph, _check_int, connected


@dataclass(frozen=True)
class RootCountMatrix:
    """A balanced, connected root assignment over a host hypergraph.

    ``counts`` is aligned with ``host.edges``: row ``e`` lists, per
    vertex position within the edge, how many instances of that edge are
    rooted there.  Row sums are the edge multiplicities ``k_vector``;
    column sums per vertex are the root counts ``root_counts``, holding
    r(v) for every vertex rooted at least once.
    """

    host: UniformHypergraph
    counts: tuple[tuple[int, ...], ...]
    k_vector: tuple[int, ...] = field(init=False, repr=False, compare=False)
    root_counts: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h = self.host
        if len(self.counts) != h.edge_count:
            raise ValidationError("counts must have one row per host edge")
        kvec: list[int] = []
        roots: dict[int, int] = {}
        degree = [0] * h.n
        for row, edge in zip(self.counts, h.edges):
            if len(row) != h.m:
                raise ValidationError("each counts row must have m entries")
            if any(c < 0 for c in row):
                raise ValidationError("root counts must be non-negative")
            k = sum(row)
            kvec.append(k)
            if k:
                for c, v in zip(row, edge):
                    degree[v] += k
                    if c:
                        roots[v] = roots.get(v, 0) + c
        object.__setattr__(self, "k_vector", tuple(kvec))
        object.__setattr__(self, "root_counts", roots)
        if self.total < 1:
            raise NotEulerian("a rooting must select at least one edge instance")
        for v in range(h.n):
            if degree[v] != h.m * roots.get(v, 0):
                raise NotEulerian(
                    f"vertex {v} has incident multiplicity {degree[v]} but "
                    f"root count {roots.get(v, 0)}; balance needs a ratio of m"
                )
        selected = [h.edges[i] for i in self.support]
        if not connected({v for e in selected for v in e}, selected):
            raise NotEulerian("the selected edges do not form a connected support")

    @classmethod
    def _trusted(
        cls,
        host: UniformHypergraph,
        counts: tuple[tuple[int, ...], ...],
        k_vector: tuple[int, ...],
        root_counts: dict[int, int],
    ) -> RootCountMatrix:
        """A matrix built balanced and connected by construction, with
        its derived fields given rather than recomputed; only
        :func:`enumerate_rootings` calls this."""
        mat = object.__new__(cls)
        mat.__dict__.update(host=host, counts=counts, k_vector=k_vector, root_counts=root_counts)
        return mat

    @property
    def total(self) -> int:
        """Total number of selected instances, the trace order d."""
        return sum(self.k_vector)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of the selected host edges."""
        return tuple(i for i, k in enumerate(self.k_vector) if k)


@dataclass(frozen=True)
class DirectedMultigraph:
    """A directed multigraph given by arc multiplicities: distinct
    vertices, and arcs between them with non-negative integer
    multiplicities."""

    vertices: tuple[int, ...]
    arcs: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        present = set(self.vertices)
        if len(present) != len(self.vertices):
            raise ValidationError("digraph vertices must be distinct")
        for arc, mult in self.arcs.items():
            if not isinstance(arc, tuple) or len(arc) != 2:
                raise ValidationError(f"arc key {arc!r} is not a (tail, head) pair")
            u, w = arc
            if u not in present or w not in present:
                raise ValidationError(f"arc ({u!r}, {w!r}) leaves the vertex set")
            _check_int(f"multiplicity of arc ({u!r}, {w!r})", mult, 0)

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], arcs: dict) -> DirectedMultigraph:
        """A digraph valid by construction, built without the input
        checks; only :func:`build_digraph` calls this."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, arcs=arcs)
        return g

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


def _check_order(d: object, least: int = 0) -> None:
    """Reject an order that is not an ``int`` (``bool`` included) or is
    below ``least``."""
    _check_int("trace order", d, least)


def _check_pin(pinned: object) -> tuple[int, int]:
    """A (vertex, t) pin as a tuple of two ``int``s (``bool`` excluded)
    with t > 0."""
    if not isinstance(pinned, Sequence) or len(pinned) != 2 or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in pinned
    ):
        raise ValidationError(f"pinned {pinned!r} is not a (vertex, count) pair of integers")
    if pinned[1] < 1:
        raise ValidationError(f"pinned root count must be positive, got {pinned[1]}")
    return tuple(pinned)


def enumerate_rootings(
    h: UniformHypergraph,
    d: int,
    pinned: tuple[int, int] | None = None,
) -> Iterator[RootCountMatrix]:
    """Yield every Euler rooting of total multiplicity d, optionally
    only those that root the vertex v of a pinned pair (v, t) exactly
    t > 0 times.

    A pin no rooting meets, t above d or v on no edge, yields nothing.
    """
    _check_order(d, 1)
    if pinned is not None:
        pinned = _check_pin(pinned)
        if not h.degree(pinned[0]) or pinned[1] > d:
            return  # stage one never checks a vertex on no edge

    m = h.m
    edges = h.edges
    zero = (0,) * m
    rows = [zero] * h.edge_count

    # read chosen, last, load, rem, k_vector and roots of the current
    # k-vector, bound in the loop below
    def complete() -> RootCountMatrix:
        # no later edge can root anything, so every remaining root lies
        # in the last edge and its row is forced
        edge, _, index = chosen[last]
        rows[index] = tuple(rem[v] for v in edge)
        return RootCountMatrix._trusted(h, tuple(rows), k_vector, dict(roots))

    def distribute(i: int) -> Iterator[RootCountMatrix]:
        edge, k, index = chosen[i]
        for v in edge:
            load[v] -= k
        lows = [x if (x := rem[v] - load[v]) > 0 else 0 for v in edge]
        highs = [x if (x := rem[v]) < k else k for v in edge]
        for row in _bounded_compositions(k, lows, highs):
            for v, c in zip(edge, row):
                rem[v] -= c
            rows[index] = row
            if i + 1 == last:
                yield complete()
            else:
                yield from distribute(i + 1)
            for v, c in zip(edge, row):
                rem[v] += c
        rows[index] = zero
        for v in edge:
            load[v] += k

    for k_vector, load in _balanced_multiplicities(edges, h.n, m, d, pinned):
        chosen = [(edges[i], k, i) for i, k in enumerate(k_vector) if k]
        support = [e for e, _, _ in chosen]
        if not connected({v for e in support for v in e}, support):
            continue
        last = len(chosen) - 1
        rem = [s // m for s in load]
        roots = {v: r for v, r in enumerate(rem) if r}
        yield from distribute(0) if last else [complete()]
        rows[chosen[last][2]] = zero


def _balanced_multiplicities(
    edges: tuple[Edge, ...], n: int, m: int, d: int, pinned: tuple[int, int] | None,
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Stage one: every multiplicity vector over ``edges`` summing to d
    whose incident sums are divisible by m, and m * t at a vertex pinned
    to t roots.  Each vertex is checked once its last edge is decided;
    the vector is yielded with a copy of its incident sums."""
    count = len(edges)
    if count == 0:
        return
    pin_vertex, pin_sum = (pinned[0], m * pinned[1]) if pinned else (-1, -1)
    last_at = {v: pos for pos, e in enumerate(edges) for v in e}
    finalize: list[list[int]] = [[] for _ in range(count)]
    for v, pos in last_at.items():
        finalize[pos].append(v)
    load = [0] * n
    kvec = [0] * count

    def feasible(pos: int) -> bool:
        if pin_vertex >= 0 and load[pin_vertex] > pin_sum:
            return False
        for v in finalize[pos]:
            s = load[v]
            if s % m:
                return False
            if v == pin_vertex and s != pin_sum:
                return False
        return True

    def assign(pos: int, remaining: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        for k in (remaining,) if pos == count - 1 else range(remaining + 1):
            kvec[pos] = k
            if k:
                for v in edges[pos]:
                    load[v] += k
            if feasible(pos):
                if pos == count - 1:
                    yield tuple(kvec), list(load)
                else:
                    yield from assign(pos + 1, remaining - k)
            if k:
                for v in edges[pos]:
                    load[v] -= k
        kvec[pos] = 0

    yield from assign(0, d)


def _bounded_compositions(
    k: int, lows: list[int], highs: list[int]
) -> Iterator[tuple[int, ...]]:
    """Every tuple c of two or more entries with lows[j] <= c[j] <=
    highs[j] summing to k, in lexicographic order.  Each entry's range
    is narrowed by the bounds of the entries after it, so every branch
    completes; with two entries left the second is k - c."""
    lo = max(lows[0], k - sum(highs[1:]))
    hi = min(highs[0], k - sum(lows[1:]))
    if len(lows) == 2:
        for c in range(lo, hi + 1):
            yield (c, k - c)
        return
    for c in range(lo, hi + 1):
        for rest in _bounded_compositions(k - c, lows[1:], highs[1:]):
            yield (c, *rest)


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
    return DirectedMultigraph._trusted(tuple(sorted(mat.root_counts)), arcs)


def arborescence_count(g: DirectedMultigraph, root: int) -> int:
    """Spanning trees oriented so every vertex reaches the root, via the
    principal minor of the out-degree Laplacian at the root, filled in
    one pass over the arcs: an arc u -> w out of a non-root u adds to
    the diagonal at u and, unless w is the root, subtracts at (u, w)."""
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
    for (u, w), mult in g.arcs.items():
        # self loops cancel: they raise the out-degree and the diagonal
        # adjacency entry by the same amount
        if u == w or u == root:
            continue
        i = index[u]
        row = lap[i]
        row[i] += mult
        if w != root:
            row[index[w]] -= mult
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


def contribution_parts(mat: RootCountMatrix, ambient_n: int) -> int:
    """The matrix contribution to the order-d trace of a host embedded
    on ambient_n vertices, as the integer numerator over d!.

    With tuple multiplicity ``prod_v r(v)! / prod c!`` over the entries c
    of ``counts``, the weight ``tuple_multiplicity * d * (m-1)^ambient_n *
    tau / prod_v ((m-1) * r(v))`` reduces to ``d * (m-1)^(ambient_n-|R|) *
    tau * prod_v (r(v)-1)! / prod c!`` over the rooted vertices R.  The c
    sum to d, so ``prod c!`` divides d! (the quotient is a multinomial).
    """
    if ambient_n < mat.host.n:
        raise ValidationError(
            f"ambient vertex count {ambient_n} is below the host's {mat.host.n}"
        )
    d = mat.total
    g = build_digraph(mat)
    tau = arborescence_count(g, g.vertices[0])
    multinomial = math.factorial(d)
    for row in mat.counts:
        for c in row:
            if c > 1:
                multinomial //= math.factorial(c)
    roots = mat.root_counts
    numerator = d * (mat.host.m - 1) ** (ambient_n - len(roots)) * tau * multinomial
    for r in roots.values():
        numerator *= math.factorial(r - 1)
    return numerator


def contribution(mat: RootCountMatrix, ambient_n: int) -> Fraction:
    """Exact weight of one rooting: tuple multiplicity times
    d * (m-1)^ambient_n * arborescences / prod of out-degrees."""
    return Fraction(contribution_parts(mat, ambient_n), math.factorial(mat.total))
