"""Exact tensor traces of uniform hypergraphs, plain and localized.

The order-d trace of the adjacency tensor equals the power sum of its
n*(m-1)^(n-1) eigenvalues and expands combinatorially as

    Tr_d(H) = d * (m-1)^n * sum over Euler rootings F of
              N(F) * arborescences(R(F)) / prod over rooted v of ((m-1) * r(v))

where N(F) is the tuple multiplicity of the rooting and R(F) its
digraph.  As N(F) = prod r(v)! / prod c! over the entries c of the
count matrix, each weight reduces to

    d * (m-1)^(n-|R|) * arborescences(R(F)) * prod over rooted v of (r(v)-1)! / prod c!

with |R| the number of rooted vertices.  The c sum to d, so prod c!
divides d!: ``euler.contribution_parts`` returns each weight as an
integer over d!, and an order's sum is one integer numerator over d!.

``trace`` evaluates the sum exactly; ``trace_local`` restricts it to
rootings matching a :class:`LocalTraceQuery` (vertices required as
roots, excluded entirely, or rooted a pinned number of times), and
``trace_table`` batches many orders and queries over one enumeration
pass per order.  All three run the same keyed pass: check the orders
and their cost, validate the queries, enumerate, and sum the weights
grouped by key.

Order zero is the eigenvalue count: ``Tr_0 = n * (m-1)^(n-1)``.  The
localized value at order zero follows the convention ``(m-1)^(n-1)``
used by the cut-vertex composition formulas, and is only defined for
queries without required or pinned vertices.

``trace_m2_oracle`` is an independent route for 2-uniform hosts: the
trace of the d-th power of the ordinary adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .config import Budget, default_budget
from .errors import (
    InfeasibleQuery,
    LimitExceeded,
    NotAGraph,
    ValidationError,
    VertexOutOfRange,
)
from .euler import contribution_parts, enumerate_rootings
from .hypergraph import UniformHypergraph


@dataclass(frozen=True)
class LocalTraceQuery:
    """Root-count constraints for a localized trace.

    required vertices must be rooted at least once, forbidden vertices
    may not appear in the support at all, and an optional pinned pair
    (vertex, t) demands exactly t > 0 roots at that vertex.
    """

    required: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()
    pinned: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if self.pinned is None:
            pinned = ()
        elif isinstance(self.pinned, Sequence) and len(self.pinned) == 2:
            pinned = tuple(self.pinned)
        else:
            raise ValidationError(f"pinned {self.pinned!r} is not a (vertex, count) pair")
        for v in (*self.required, *self.forbidden, *pinned):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"query entry {v!r} is not an integer")
        if self.required & self.forbidden:
            raise ValidationError(
                f"vertices {sorted(self.required & self.forbidden)} are both "
                "required and forbidden"
            )
        if self.pinned is not None:
            vertex, t = pinned
            object.__setattr__(self, "pinned", pinned)
            if t < 1:
                raise ValidationError(f"pinned root count must be positive, got {t}")
            if vertex in self.forbidden:
                raise ValidationError(f"pinned vertex {vertex} is forbidden")

    def check_vertices(self, n: int) -> None:
        """Reject any query vertex outside 0..n-1."""
        pinned = [self.pinned[0]] if self.pinned else []
        for v in sorted(self.required | self.forbidden) + pinned:
            if not 0 <= v < n:
                raise VertexOutOfRange(f"query vertex {v} is not in 0..{n - 1}")

    @property
    def is_empty(self) -> bool:
        return not self.required and not self.forbidden and self.pinned is None

    @property
    def constrains_positively(self) -> bool:
        return bool(self.required) or self.pinned is not None

    def matches(self, root_counts: Mapping[int, int]) -> bool:
        if any(root_counts.get(v, 0) == 0 for v in self.required):
            return False
        if any(root_counts.get(v, 0) for v in self.forbidden):
            return False
        if self.pinned is not None:
            vertex, t = self.pinned
            if root_counts.get(vertex, 0) != t:
                return False
        return True


def query(
    required: Iterable[int] = (),
    forbidden: Iterable[int] = (),
    pinned: tuple[int, int] | None = None,
) -> LocalTraceQuery:
    """Convenience constructor accepting any iterables."""
    return LocalTraceQuery(frozenset(required), frozenset(forbidden), pinned)


EMPTY_QUERY = LocalTraceQuery()


def _check_cost(h: UniformHypergraph, d: int, budget: Budget) -> None:
    cost = h.edge_count * d
    if cost > budget.cost_limit:
        raise LimitExceeded(
            f"trace cost {h.edge_count} edges * d={d} exceeds the budget "
            f"of {budget.cost_limit}; raise it explicitly to proceed"
        )


def _order_zero(h: UniformHypergraph) -> Fraction:
    return Fraction(h.n * (h.m - 1) ** (h.n - 1))


def _order_zero_local(h: UniformHypergraph) -> Fraction:
    return Fraction((h.m - 1) ** (h.n - 1))


def _trace_pass(
    h: UniformHypergraph,
    orders: range,
    budget: Budget | None,
    restrict: LocalTraceQuery = EMPTY_QUERY,
    queries: Sequence[LocalTraceQuery] = (),
) -> dict[tuple[int, tuple[LocalTraceQuery, ...]], Fraction]:
    """The one enumeration pass behind every trace entry point.

    Checks that the orders are non-negative and the largest is within
    the budget, validates every query against the host, then sums the
    weights of the rootings of each positive order that match
    ``restrict``, keyed by (d, the members of ``queries`` the rooting
    matches), as integer numerators over d!.  Order zero has no rootings;
    callers apply its convention.
    """
    if not orders or orders[0] < 0:
        raise ValidationError(f"trace order must be non-negative, got {orders.stop - 1}")
    _check_cost(h, orders[-1], budget or default_budget())
    for q in (restrict, *queries):
        q.check_vertices(h.n)
    totals: dict[tuple[int, tuple[LocalTraceQuery, ...]], Fraction] = {}
    for d in orders:
        if d == 0:
            continue
        sums: dict[tuple[LocalTraceQuery, ...], int] = {}
        for mat in enumerate_rootings(h, d, restrict):
            roots = mat.root_counts
            matched = tuple(q for q in queries if q.matches(roots))
            sums[matched] = sums.get(matched, 0) + contribution_parts(mat, h.n)[0]
        totals.update({(d, key): Fraction(num, factorial(d)) for key, num in sums.items()})
    return totals


def trace(h: UniformHypergraph, d: int, budget: Budget | None = None) -> Fraction:
    """Exact order-d trace of the adjacency tensor of h."""
    sums = _trace_pass(h, range(d, d + 1), budget)
    return sums.get((d, ()), Fraction(0)) if d else _order_zero(h)


def trace_local(
    h: UniformHypergraph,
    d: int,
    q: LocalTraceQuery,
    budget: Budget | None = None,
) -> Fraction:
    """Exact order-d trace restricted to rootings matching the query."""
    sums = _trace_pass(h, range(d, d + 1), budget, restrict=q)
    if d:
        return sums.get((d, ()), Fraction(0))
    if q.constrains_positively:
        raise InfeasibleQuery(
            "order zero admits no roots, so required or pinned vertices "
            "cannot be satisfied"
        )
    return _order_zero_local(h)


@dataclass(frozen=True)
class TraceTable:
    """Traces for all orders 0..d_max and a fixed family of queries.

    Keys of ``entries`` are (d, query), with query None for the plain
    trace.  Entries that no rooting can satisfy are exact zeros.
    """

    host: UniformHypergraph
    d_max: int
    queries: tuple[LocalTraceQuery, ...]
    entries: dict[tuple[int, LocalTraceQuery | None], Fraction] = field(repr=False)

    def get(self, d: int, q: LocalTraceQuery | None = None) -> Fraction:
        if not 0 <= d <= self.d_max:
            raise ValidationError(f"order {d} is outside 0..{self.d_max}")
        if (d, q) not in self.entries:
            raise ValidationError(f"query {q!r} was not part of this table")
        return self.entries[(d, q)]


def trace_table(
    h: UniformHypergraph,
    d_max: int,
    queries: Sequence[LocalTraceQuery] = (),
    budget: Budget | None = None,
) -> TraceTable:
    """Batch plain and localized traces sharing one enumeration per order."""
    qs = tuple(queries)
    distinct = tuple(dict.fromkeys(qs))
    sums = _trace_pass(h, range(d_max + 1), budget, queries=distinct)
    entries: dict[tuple[int, LocalTraceQuery | None], Fraction] = {
        (d, q): Fraction(0) for d in range(1, d_max + 1) for q in (None, *distinct)
    }
    entries[(0, None)] = _order_zero(h)
    for q in distinct:
        entries[(0, q)] = (
            Fraction(0) if q.constrains_positively else _order_zero_local(h)
        )
    for (d, matched), value in sums.items():
        entries[(d, None)] += value
        for q in matched:
            entries[(d, q)] += value
    return TraceTable(host=h, d_max=d_max, queries=qs, entries=entries)


def trace_m2_oracle(h: UniformHypergraph, d: int) -> int:
    """Trace of the d-th adjacency matrix power of a 2-uniform host."""
    if h.m != 2:
        raise NotAGraph(f"the matrix-power oracle needs m=2, got m={h.m}")
    if d < 0:
        raise ValidationError(f"trace order must be non-negative, got {d}")
    n = h.n
    if d == 0:
        return n
    adj = [[0] * n for _ in range(n)]
    for a, b in h.edges:
        adj[a][b] = 1
        adj[b][a] = 1

    def matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
        cols = list(zip(*y))
        return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]

    result: list[list[int]] | None = None
    base = adj
    e = d
    while e:
        if e & 1:
            result = base if result is None else matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    assert result is not None
    return sum(result[i][i] for i in range(n))
