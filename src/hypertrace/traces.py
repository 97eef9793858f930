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
divides d!: ``euler.contribution_parts`` returns each weight's integer
numerator over d!, and an order's sum is one integer numerator over d!.

``trace`` evaluates the sum exactly; ``trace_local`` restricts it to
rootings matching a :class:`LocalTraceQuery` (vertices required as
roots, excluded entirely, or rooted a pinned number of times), and
``trace_table`` batches many orders and queries over one enumeration
pass per order.  All three run the same keyed pass: check the orders
and their cost, validate the queries, then sum the weights grouped by
key.

Plain traces (``trace``, ``trace_local`` with an empty query and
``trace_table`` without queries) of a host with more than one block
(``hypergraph.blocks``) factor over its block-cut forest, the paper's
cut-vertex theorem:

* Balance roots every vertex of a selected edge, and the two sides of
  a cut vertex are each balanced, since every other vertex of a side
  is.  So a rooting restricts to a rooting of each block it uses, with
  a connected support, and the blocks it uses form a subtree of the
  forest joined at rooted cut vertices.
* The arborescence count of an Eulerian digraph does not depend on the
  root and multiplies across a cut vertex, and ``prod c!`` factors over
  blocks.  Scaled by ``(m-1)^d``, each rooted vertex carries
  ``phi(r) = (m-1)^(r-1) * (r-1)!``, and ``d!/prod c!`` splits into
  ``d!/prod d_B!`` times a multinomial per block: the block terms
  multiply as exponential generating functions in the order mass.
* Each block gets a table ``W_B[d_B; t]``, keyed by its order and the
  root counts t at its cut vertices, filled by the same keyed pass over
  the block alone: ``tau * d_B!/prod c! * prod phi(r(v))`` over the
  rooted vertices that are not cut vertices.  Tables are kept with the
  host and extended one order at a time.
* One DP joins them, children first.  At a cut vertex w, ``C_w[sigma]``
  is the product over its child blocks of ``1 + sum_t x^t G_B[t]``, and
  ``A_w(s) = sum_sigma C_w[sigma] * phi(s + sigma)``.  A child block
  with t roots at its parent adds to ``G_B[t]`` each entry times
  ``A_w(t_w)`` for every lower cut vertex w it roots.
* Every rooting has one topmost element: a cut vertex, adding
  ``sum_{sigma>=1} C_w[sigma] * phi(sigma)``, or a block not rooted at
  its parent vertex (or the first block of a component), adding those
  entries.  The total at mass d is ``Tr_d * d! * (m-1)^(d-n) / d``.

A host with one block, localized queries and ``composition``'s
profiles enumerate the whole host.

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
from math import comb, factorial
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .config import Budget, default_budget
from .errors import (
    InfeasibleQuery,
    LimitExceeded,
    NotAGraph,
    ValidationError,
    VertexOutOfRange,
)
from .euler import contribution_parts, enumerate_rootings
from .hypergraph import UniformHypergraph, blocks, cut_vertices, new_hypergraph


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


def _check_order(d: object) -> None:
    """Reject an order that is not a non-negative ``int`` (``bool`` included)."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValidationError(f"trace order must be a non-negative integer, got {d!r}")


def _keyed_numerators(
    h: UniformHypergraph,
    d: int,
    key: Callable[[Mapping[int, int]], Hashable],
    restrict: LocalTraceQuery = EMPTY_QUERY,
) -> dict[Hashable, int]:
    """Sum the weights of the order-d rootings of h that match
    ``restrict``, grouped by ``key`` of their root counts, as integer
    numerators over d!."""
    sums: dict[Hashable, int] = {}
    for mat in enumerate_rootings(h, d, restrict):
        k = key(mat.root_counts)
        sums[k] = sums.get(k, 0) + contribution_parts(mat, h.n)
    return sums


def _trace_pass(
    h: UniformHypergraph,
    d_min: int,
    d_max: int,
    budget: Budget | None,
    restrict: LocalTraceQuery = EMPTY_QUERY,
    queries: Sequence[LocalTraceQuery] = (),
) -> dict[tuple[int, tuple[LocalTraceQuery, ...]], Fraction]:
    """The one pass behind every trace entry point.

    Checks that the orders are non-negative integers and the largest is
    within the budget, validates every query against the host, then sums
    the weights of the rootings of each positive order from d_min to
    d_max that match ``restrict``, keyed by (d, the members of
    ``queries`` the rooting matches).  A plain pass (no restriction, no
    queries) over a host of several blocks takes the block route; any
    other pass enumerates the whole host.  Order zero has no rootings;
    callers apply its convention.
    """
    _check_order(d_min)
    _check_order(d_max)
    _check_cost(h, d_max, budget or default_budget())
    for q in (restrict, *queries):
        q.check_vertices(h.n)
    if restrict.is_empty and not queries:
        forest = h.memo.get(_BlockForest)
        if forest is None:
            forest = h.memo[_BlockForest] = _BlockForest(h)
        if len(forest.blocks) > 1:
            return {(d, ()): value for d, value in forest.traces(d_max).items() if d >= d_min}
    totals: dict[tuple[int, tuple[LocalTraceQuery, ...]], Fraction] = {}
    for d in range(max(d_min, 1), d_max + 1):
        sums = _keyed_numerators(
            h, d, lambda roots: tuple(q for q in queries if q.matches(roots)), restrict
        )
        totals.update({(d, key): Fraction(num, factorial(d)) for key, num in sums.items()})
    return totals


# --- the block route ------------------------------------------------------

Poly = dict[int, int]  # exponential generating function: mass k -> coefficient of y^k/k!


def _add_into(target: Poly, p: Poly, scale: int = 1) -> None:
    for k, v in p.items():
        target[k] = target.get(k, 0) + v * scale


def _times(p: Poly, q: Poly, limit: int) -> Poly:
    """The product of two exponential generating functions, with masses
    above limit dropped."""
    out: Poly = {}
    for i, a in p.items():
        for j, b in q.items():
            if i + j <= limit:
                out[i + j] = out.get(i + j, 0) + comb(i + j, i) * a * b
    return out


def _phi(m: int, r: int) -> int:
    """The factor of a vertex rooted r times, scaled by (m-1)^r."""
    return (m - 1) ** (r - 1) * factorial(r - 1)


def _cut_vertex(
    m: int, child_sums: list[dict[int, Poly]], d_max: int, tops: Poly
) -> Callable[[int], Poly]:
    """Join the child blocks of a cut vertex w.

    ``C_w[sigma]`` is the product over the child blocks B of
    ``1 + sum_t x^t G_B[t]`` at ``x^sigma``.  The rootings whose topmost
    element is w add ``sum_{sigma>=1} C_w[sigma] phi(sigma)`` to
    ``tops``.  Returns ``A_w``: ``A_w(s) = sum_sigma C_w[sigma]
    phi(s+sigma)``, the weight below w when the parent block roots w s
    times, computed once per s and cut at the masses the parent can
    still use (its own entry has order at least m*s)."""
    joined: dict[int, Poly] = {0: {0: 1}}
    for sums in child_sums:
        grown: dict[int, Poly] = {}
        for s1, p1 in joined.items():
            _add_into(grown.setdefault(s1, {}), p1)
            for s2, p2 in sums.items():
                _add_into(grown.setdefault(s1 + s2, {}), _times(p1, p2, d_max))
        joined = grown
    for sigma, p in joined.items():
        if sigma:
            _add_into(tops, p, _phi(m, sigma))
    cache: dict[int, Poly] = {}

    def below(s: int) -> Poly:
        if s not in cache:
            limit = d_max - m * s
            out: Poly = {}
            for sigma, p in joined.items():
                _add_into(out, {k: v for k, v in p.items() if k <= limit}, _phi(m, s + sigma))
            cache[s] = out
        return cache[s]

    return below


@dataclass
class _Block:
    """One block of the forest: its edges relabeled onto 0..k-1, the
    cut vertex above it (None at a component's first block), the cut
    vertices below it, and its rooting table so far."""

    host: UniformHypergraph
    up: int | None
    kids: list[int]
    keyed: list[int]  # local ids of up (if any), then of kids
    table: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)


class _BlockForest:
    """The block-cut forest of one host and the rooting tables of its
    blocks, kept with the host so that a run of trace calls on it (an
    Estrada series, an audit) enumerates each block once per order."""

    def __init__(self, h: UniformHypergraph) -> None:
        self.m, self.n = h.m, h.n
        parts, cuts = blocks(h), cut_vertices(h)
        verts = [sorted({v for i in b for v in h.edges[i]}) for b in parts]
        self.at: dict[int, list[int]] = {}
        for b, vs in enumerate(verts):
            for v in vs:
                self.at.setdefault(v, []).append(b)
        # preorder; each component hangs from its first block, every
        # other block from its parent cut vertex
        parent: dict[int, int | None] = {}
        order: list[int] = []
        for root in range(len(parts)):
            if root in parent:
                continue
            parent[root] = None
            todo = [root]
            while todo:
                b = todo.pop()
                order.append(b)
                for w in verts[b]:
                    if w != parent[b]:
                        for c in self.at[w]:
                            if c != b:
                                parent[c] = w
                                todo.append(c)
        self.children_first = order[::-1]
        self.blocks: list[_Block] = []
        for b, (edge_ids, vs) in enumerate(zip(parts, verts)):
            up = parent[b]
            local = {v: i for i, v in enumerate(vs)}
            kids = [w for w in vs if w != up and w in cuts]
            host = new_hypergraph(
                h.m, len(vs), [[local[v] for v in h.edges[i]] for i in edge_ids]
            )
            keyed = [local[w] for w in ([] if up is None else [up]) + kids]
            self.blocks.append(_Block(host, up, kids, keyed))
        self.filled = 0

    def fill(self, d_max: int) -> None:
        """Extend every table to order d_max: ``W_B[d_B; t]``, per order
        d_B and root counts t at the keyed vertices, is the sum over the
        block's rootings of ``tau * d_B!/prod c! * prod phi(r(v))`` over
        its rooted vertices that are not keyed."""
        m = self.m
        for d in range(self.filled + 1, d_max + 1):
            for block in self.blocks:
                keyed = block.keyed
                sums = _keyed_numerators(
                    block.host, d, lambda roots: tuple(roots.get(v, 0) for v in keyed)
                )
                for ts, num in sums.items():
                    den = d * (m - 1) ** block.host.n
                    for t in ts:
                        if t:
                            den *= _phi(m, t)
                    block.table[d, ts] = num * (m - 1) ** d // den
            self.filled = d

    def traces(self, d_max: int) -> dict[int, Fraction]:
        """Tr_1..Tr_{d_max} by one DP over the forest (see the module
        docstring)."""
        self.fill(d_max)
        m = self.m
        tops: Poly = {}
        child_sums: dict[int, dict[int, Poly]] = {}  # G_B of each block done
        for b in self.children_first:
            block = self.blocks[b]
            below = [
                _cut_vertex(m, [child_sums.pop(c) for c in self.at[w] if c != b], d_max, tops)
                for w in block.kids
            ]
            sums: dict[int, Poly] = {}
            for (d, ts), weight in block.table.items():
                if d > d_max:
                    continue
                term: Poly = {d: weight}
                for a, t in zip(below, ts[len(ts) - len(below):]):
                    if t:
                        term = _times(term, a(t), d_max)
                top = block.up is None or ts[0] == 0
                _add_into(tops if top else sums.setdefault(ts[0], {}), term)
            if block.up is not None:
                child_sums[b] = sums
        return {
            d: Fraction(d * (m - 1) ** self.n * total, (m - 1) ** d * factorial(d))
            for d, total in sorted(tops.items())
        }


def trace(h: UniformHypergraph, d: int, budget: Budget | None = None) -> Fraction:
    """Exact order-d trace of the adjacency tensor of h."""
    sums = _trace_pass(h, d, d, budget)
    return sums.get((d, ()), Fraction(0)) if d else _order_zero(h)


def trace_local(
    h: UniformHypergraph,
    d: int,
    q: LocalTraceQuery,
    budget: Budget | None = None,
) -> Fraction:
    """Exact order-d trace restricted to rootings matching the query."""
    sums = _trace_pass(h, d, d, budget, restrict=q)
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
    sums = _trace_pass(h, 0, d_max, budget, queries=distinct)
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
    _check_order(d)
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
