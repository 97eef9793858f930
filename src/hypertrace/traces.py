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
``trace_table`` batches many orders and queries.  Every entry point,
``composition``'s profiles included, runs one check: the order is a
non-negative ``int`` within the budget and every query vertex lies in
the host.

Every localized value at d >= 1 is a signed sum of plain or pinned
traces of sub-hosts.  Forbidding F gives the trace of h less the edges
meeting F, on the same n: a rooting roots no vertex of F exactly when
it selects no edge through one, and the weight reads only n.
Requiring R sums (-1)^|S| times that value with F | S forbidden over
the subsets S of R.  Root counts sum to d, so at most 2^min(|R|, d)
sub-hosts are read; each is kept in ``h.memo`` under the edges it
keeps, shares h's block tables and runs on the forest below if it has
cut vertices.  A pinned trace enumerates the rootings meeting the pin.

A rooting table holds the order-d rootings of a host, summed by their
root counts at the vertices its reader keys on, as integer numerators
over d!.  The whole host has one table per order, keyed by every root
count ``(r(0), .., r(n-1))`` and kept in ``h.memo`` under d;
``composition``'s profiles fold it by the anchor's root count, so
profiles of one host at two anchors enumerate it once.  Plain traces of
a host with one block read it, as the forest below would fill every
lower order first; those of a host with more than one block
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
  root counts t at its cut vertices, from the rooting table of the
  block alone keyed on those vertices: ``tau * d_B!/prod c! * prod
  phi(r(v))`` over the rooted vertices that are not cut vertices.
  Tables are kept with the host and extended one order at a time.
* A block is relabeled with its keyed vertices first, in key order (the
  cut vertex above it, then those below), and its other vertices after
  them in sorted order.  The relabeled block, its number of keyed
  vertices and the order then key its table in a store held by the
  forest, so equal blocks (every single edge with as many keyed
  vertices, for one) are enumerated once per order.  Hosts computed
  together, the two of an audit or the classes of a scan, share one
  store (``_share_blocks``).  A table enters the store only once it is
  complete, so a forest dropped part-way through an order leaves the
  store valid for the hosts still reading it.
* One DP joins them, children first.  At a cut vertex w, ``C_w[sigma]``
  is the product over its child blocks of ``1 + sum_t x^t G_B[t]``, and
  ``A_w(s) = sum_sigma C_w[sigma] * phi(s + sigma)``.  A child block
  with t roots at its parent adds to ``G_B[t]`` each entry times
  ``A_w(t_w)`` for every lower cut vertex w it roots.
* Every rooting has one topmost element: a cut vertex, adding
  ``sum_{sigma>=1} C_w[sigma] * phi(sigma)``, or a block not rooted at
  its parent vertex (or the first block of a component), adding those
  entries.  The total at mass d is ``Tr_d * d! * (m-1)^(d-n) / d``.
* The DP state (``G_B``, ``C_w``, ``A_w(s)``, the products of the
  ``A_w`` a block entry needs, and the totals) lives with the forest.
  The coefficient at mass k of a product reads only the masses up to k
  of its factors, so each order extends every polynomial by its mass-k
  coefficient, children first, and an order already reached is read
  back.  A root count first seen at order d gets its ``A_w(s)`` and
  products over the masses below d from the state kept.  A mass that
  is not a multiple of the gcd of the orders with rootings so far (a
  hypertree's masses off the multiples of m) is zero throughout and is
  skipped.

Order zero is the eigenvalue count: ``Tr_0 = n * (m-1)^(n-1)``.  The
localized value at order zero follows the convention ``(m-1)^(n-1)``
used by the cut-vertex composition formulas, and is only defined for
queries without required or pinned vertices.  At d >= 1 a query that
no rooting matches, a pinned count above the order included, gives an
exact 0 on every entry point.

``trace_m2_oracle`` is an independent route for 2-uniform hosts: the
trace of the d-th power of the ordinary adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd
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
from .hypergraph import UniformHypergraph, blocks, new_hypergraph


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
        for name in ("required", "forbidden"):
            vertices = getattr(self, name)
            try:
                object.__setattr__(self, name, frozenset(vertices))
            except TypeError:
                raise ValidationError(f"{name} {vertices!r} is not a set of vertices") from None
        if self.pinned is not None:
            if not isinstance(self.pinned, Sequence) or len(self.pinned) != 2:
                raise ValidationError(f"pinned {self.pinned!r} is not a (vertex, count) pair")
            object.__setattr__(self, "pinned", tuple(self.pinned))
        for v in (*self.required, *self.forbidden, *(self.pinned or ())):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"query entry {v!r} is not an integer")
        if self.required & self.forbidden:
            raise ValidationError(
                f"vertices {sorted(self.required & self.forbidden)} are both "
                "required and forbidden"
            )
        if self.pinned is not None:
            vertex, t = self.pinned
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
    return LocalTraceQuery(required, forbidden, pinned)


def _check(
    h: UniformHypergraph,
    d: int,
    budget: Budget | None,
    queries: Iterable[LocalTraceQuery] = (),
) -> None:
    """The one check behind every trace entry point: d is a
    non-negative ``int``, h's edges times d are within the budget, and
    every query vertex lies in h."""
    _check_order(d)
    limit = (budget or default_budget()).cost_limit
    if h.edge_count * d > limit:
        raise LimitExceeded(
            f"trace cost {h.edge_count} edges * d={d} exceeds the budget "
            f"of {limit}; raise it explicitly to proceed"
        )
    for q in queries:
        q.check_vertices(h.n)


def _order_zero(h: UniformHypergraph) -> Fraction:
    return Fraction(h.n * (h.m - 1) ** (h.n - 1))


def _order_zero_local(h: UniformHypergraph) -> Fraction:
    return Fraction((h.m - 1) ** (h.n - 1))


def _check_order(d: object) -> None:
    """Reject an order that is not a non-negative ``int`` (``bool`` included)."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValidationError(f"trace order must be a non-negative integer, got {d!r}")


def _enumerate_table(
    h: UniformHypergraph,
    d: int,
    keyed: Sequence[int],
    pinned: tuple[int, int] | None = None,
) -> dict[tuple[int, ...], int]:
    """The order-d rooting table of h, of the rootings that meet the pin
    if one is given, keyed by the root counts at the vertices in
    ``keyed``.  Rootings of one k-vector share their root counts, so
    each key is built once per k-vector."""
    table: dict[tuple[int, ...], int] = {}
    k_vector, key = None, ()
    for mat in enumerate_rootings(h, d, pinned):
        if mat.k_vector is not k_vector:
            k_vector = mat.k_vector
            key = tuple(mat.root_counts.get(v, 0) for v in keyed)
        table[key] = table.get(key, 0) + contribution_parts(mat, h.n)
    return table


def _fold(
    h: UniformHypergraph, d: int, key: Callable[[tuple[int, ...]], Hashable]
) -> dict[Hashable, Fraction]:
    """The order-d traces of h summed by ``key`` of each rooting's root
    counts ``(r(0), .., r(n-1))``, folded from the whole host's rooting
    table, which is enumerated once per order and kept in ``h.memo``."""
    table = h.memo.get(d)
    if table is None:
        table = h.memo[d] = _enumerate_table(h, d, h.vertices)
    sums: dict[Hashable, int] = {}
    for roots, num in table.items():
        k = key(roots)
        sums[k] = sums.get(k, 0) + num
    return {k: Fraction(num, factorial(d)) for k, num in sums.items()}


def _plain(h: UniformHypergraph, d_min: int, d_max: int) -> dict[int, Fraction]:
    """Tr_d of h for 1 <= d_min <= d <= d_max: through the block forest
    on a host of several blocks, else from the whole host's table (the
    forest would fill every lower order first)."""
    _share_blocks((h,))
    forest = h.memo[_BlockForest]
    if len(forest.blocks) > 1:
        try:
            return forest.traces(d_min, d_max)
        except BaseException:
            # an extension cut short leaves the DP part-way through an order
            del h.memo[_BlockForest]
            raise
    return {d: _fold(h, d, lambda roots: ()).get((), Fraction(0))
            for d in range(d_min, d_max + 1)}


def _share_blocks(hosts: Sequence[UniformHypergraph]) -> None:
    """Give the hosts without a forest the first host's store of block
    tables, or one new store, so that a block they share is enumerated
    once per order across all of them (the two hosts of an audit, the
    classes of a scan, a host and its sub-hosts)."""
    first = hosts[0].memo.get(_BlockForest)
    store: BlockTables = first.store if first else {}
    for h in hosts:
        if _BlockForest not in h.memo:
            h.memo[_BlockForest] = _BlockForest(h, store)


# --- the block route ------------------------------------------------------

Poly = dict[int, int]  # exponential generating function: mass k -> coefficient of y^k/k!


def _mass(row: list[int], p: Poly, q: Poly) -> int:
    """The coefficient at mass k of the product of p and q, where
    ``row`` is the binomial row ``C(k, 0..k)``: it reads only the masses
    up to k of either factor."""
    k = len(row) - 1
    if len(q) < len(p):
        p, q = q, p
    total = 0
    for i, a in p.items():
        b = q.get(k - i)
        if b:
            total += row[i] * a * b
    return total


def _add(polys: dict[int, Poly], key: int, k: int, c: int) -> None:
    """Add c to the coefficient at mass k of ``polys[key]``; only
    nonzero coefficients are stored."""
    if c:
        poly = polys.setdefault(key, {})
        poly[k] = poly.get(k, 0) + c


def _phi(m: int, r: int) -> int:
    """The factor of a vertex rooted r times, scaled by (m-1)^r."""
    return (m - 1) ** (r - 1) * factorial(r - 1)


@dataclass
class _Cut:
    """A cut vertex w below a block and its part of the DP state:
    ``joined[i][sigma]`` is the product over the first i child blocks B
    of ``1 + sum_t x^t G_B[t]`` at ``x^sigma``, so ``joined[-1]`` is
    ``C_w``, and ``below[s]`` is ``A_w(s)`` for every s the block above
    has rooted w with so far."""

    children: list[int]
    joined: list[dict[int, Poly]]
    below: dict[int, Poly] = field(default_factory=dict)


@dataclass
class _Block:
    """One block of the forest: its edges relabeled onto 0..k-1 with the
    ``keyed`` vertices first, the cut vertex above it (None at a
    component's first block), the cut vertices below it, and its part of
    the DP state.  ``weights`` is the table ``W_B``, root counts at the
    keyed vertices -> {order: weight}; ``products`` maps the root counts
    at the cut vertices below to the ``A_w(t_w)`` with t_w > 0 and their
    running products, the last one being the whole product; ``sums`` is
    ``G_B``."""

    host: UniformHypergraph
    up: int | None
    cuts: list[_Cut]
    keyed: int  # up (if any), then the cut vertices below, are 0..keyed-1 in host
    weights: dict[tuple[int, ...], Poly] = field(default_factory=dict)
    products: dict[tuple[int, ...], tuple[list[Poly], list[Poly]]] = field(default_factory=dict)
    sums: dict[int, Poly] = field(default_factory=dict)


BlockTables = dict[tuple[UniformHypergraph, int, int], dict[tuple[int, ...], int]]


class _BlockForest:
    """The block-cut forest of one host, the tables of its blocks and
    the DP that joins them, kept with the host and extended one order at
    a time: a run of trace calls on it (an Estrada series, an audit)
    computes each DP coefficient once, and an order already reached is
    read back.  ``store`` maps a relabeled block, its number of keyed
    vertices and an order to the block's weights at that order, so equal
    blocks, of this host or of the hosts sharing the store, are
    enumerated once per order."""

    def __init__(self, h: UniformHypergraph, store: BlockTables) -> None:
        self.m, self.n = h.m, h.n
        self.store = store
        parts = blocks(h)
        verts = [sorted({v for i in b for v in h.edges[i]}) for b in parts]
        at: dict[int, list[int]] = {}
        for b, vs in enumerate(verts):
            for v in vs:
                at.setdefault(v, []).append(b)
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
                        for c in at[w]:
                            if c != b:
                                parent[c] = w
                                todo.append(c)
        self.children_first = order[::-1]
        self.blocks: list[_Block] = []
        for b, (edge_ids, vs) in enumerate(zip(parts, verts)):
            up = parent[b]
            kids = [w for w in vs if w != up and len(at[w]) > 1]  # cut vertices below
            keyed = ([] if up is None else [up]) + kids
            # keyed vertices first, so that equal blocks are equal hosts
            local = {v: i for i, v in enumerate(keyed + [v for v in vs if v not in keyed])}
            host = new_hypergraph(
                h.m, len(vs), [[local[v] for v in h.edges[i]] for i in edge_ids]
            )
            below = []
            for w in kids:
                children = [c for c in at[w] if c != b]
                below.append(_Cut(children, [{0: {0: 1}} for _ in range(len(children) + 1)]))
            self.blocks.append(_Block(host, up, below, len(keyed)))
        self.rows: list[list[int]] = [[1]]  # the binomial rows C(k, 0..k) reached
        self.step = 0  # the gcd of the orders with rootings so far
        self.totals: list[Fraction] = [Fraction(0)]  # Tr_k at every mass reached

    def traces(self, d_min: int, d_max: int) -> dict[int, Fraction]:
        """Tr_d for 1 <= d_min <= d <= d_max, extending the forest to
        order d_max first."""
        for d in range(len(self.totals), d_max + 1):
            self._fill(d)
            self.rows.append([comb(d, i) for i in range(d + 1)])
            if self.step and d % self.step == 0:
                self._extend(d)
            else:  # no sum of the orders with rootings so far reaches mass d
                self.totals.append(Fraction(0))
        return {d: self.totals[d] for d in range(d_min, d_max + 1)}

    def _fill(self, d: int) -> None:
        """Add order d to every table: ``W_B[d; t]``, per root counts t
        at the keyed vertices, is the sum over the block's order-d
        rootings of ``tau * d!/prod c! * prod phi(r(v))`` over its rooted
        vertices that are not keyed, read from the store or enumerated
        into it.  Root counts new at this order get their DP polynomials
        here, over the masses reached."""
        m = self.m
        for block in self.blocks:
            key = (block.host, block.keyed, d)
            table = self.store.get(key)
            if table is None:
                table = {}
                for ts, num in _enumerate_table(block.host, d, range(block.keyed)).items():
                    den = d * (m - 1) ** block.host.n
                    for t in ts:
                        if t:
                            den *= _phi(m, t)
                    table[ts] = num * (m - 1) ** d // den
                # stored only once complete: a fill cut short leaves the store valid
                self.store[key] = table
            if table:
                self.step = gcd(self.step, d)
            for ts, weight in table.items():
                block.weights.setdefault(ts, {})[d] = weight
                kappa = ts[len(ts) - len(block.cuts):]
                if kappa not in block.products:
                    block.products[kappa] = self._product(block.cuts, kappa)

    def _product(
        self, cuts: list[_Cut], kappa: tuple[int, ...]
    ) -> tuple[list[Poly], list[Poly]]:
        """The factors ``A_w(t_w)`` over the cut vertices w with root
        count t_w > 0 in kappa, and their running products over the
        masses reached."""
        factors = [self._below(cut, t) for cut, t in zip(cuts, kappa) if t]
        running = [factors[0] if factors else {0: 1}]
        for f in factors[1:]:
            p = running[-1]
            running.append({k: c for k, row in enumerate(self.rows) if (c := _mass(row, p, f))})
        return factors, running

    def _below(self, cut: _Cut, s: int) -> Poly:
        """``A_w(s) = sum_sigma C_w[sigma] * phi(s + sigma)``, computed
        over the masses reached when s is new."""
        if s not in cut.below:
            a: Poly = {}
            for sigma, c in cut.joined[-1].items():
                for k, v in c.items():
                    a[k] = a.get(k, 0) + v * _phi(self.m, s + sigma)
            cut.below[s] = a
        return cut.below[s]

    def _extend(self, k: int) -> None:
        """Extend every DP polynomial by its coefficient at mass k (see
        the module docstring) and record Tr_k.  Blocks come children
        first, so every polynomial is extended after those it is built
        from."""
        m = self.m
        row = self.rows[k]
        top = 0
        for b in self.children_first:
            block = self.blocks[b]
            for cut in block.cuts:
                for prev, cur, child in zip(cut.joined, cut.joined[1:], cut.children):
                    for sigma, p in prev.items():
                        _add(cur, sigma, k, p.get(k, 0))
                        for t, g in self.blocks[child].sums.items():
                            _add(cur, sigma + t, k, _mass(row, p, g))
                at_k = [(sigma, p[k]) for sigma, p in cut.joined[-1].items() if k in p]
                top += sum(v * _phi(m, sigma) for sigma, v in at_k if sigma)
                for s, a in cut.below.items():
                    c = sum(v * _phi(m, s + sigma) for sigma, v in at_k)
                    if c:
                        a[k] = c
            for factors, running in block.products.values():
                for f, prev, cur in zip(factors[1:], running, running[1:]):
                    c = _mass(row, prev, f)
                    if c:
                        cur[k] = c
            cut_count = len(block.cuts)
            for ts, weights in block.weights.items():
                _, running = block.products[ts[len(ts) - cut_count:]]
                c = _mass(row, weights, running[-1])
                if block.up is None or ts[0] == 0:
                    top += c
                else:
                    _add(block.sums, ts[0], k, c)
        self.totals.append(
            Fraction(k * (m - 1) ** self.n * top, (m - 1) ** k * factorial(k))
        )


def trace(h: UniformHypergraph, d: int, budget: Budget | None = None) -> Fraction:
    """Exact order-d trace of the adjacency tensor of h."""
    _check(h, d, budget)
    return _plain(h, d, d)[d] if d else _order_zero(h)


def trace_local(
    h: UniformHypergraph,
    d: int,
    q: LocalTraceQuery,
    budget: Budget | None = None,
) -> Fraction:
    """Exact order-d trace restricted to rootings matching the query."""
    _check(h, d, budget, (q,))
    if d:
        return _local(h, d, q)
    if q.constrains_positively:
        raise InfeasibleQuery(
            "order zero admits no roots, so required or pinned vertices cannot be satisfied"
        )
    return _order_zero_local(h)


def _local(h: UniformHypergraph, d: int, q: LocalTraceQuery) -> Fraction:
    """Tr_d of h under q for d >= 1, one required vertex v at a time:
    the rootings that root v are all rootings less those forbidding v."""
    pinned, extra = (q.pinned[:1], q.pinned[1] - 1) if q.pinned else ((), 0)
    required, total = sorted(q.required), Fraction(0)
    todo = [(1, q.forbidden, 0)]
    while todo:
        sign, forbidden, i = todo.pop()
        kept = tuple(e for e in h.edges if forbidden.isdisjoint(e))
        demand = {*required[i:], *pinned}
        if len(demand) + extra > d or not demand.issubset(w for e in kept for w in e):
            continue  # 0 without a sub-host: the root counts sum to d
        if i < len(required):
            todo += [(sign, forbidden, i + 1), (-sign, forbidden | {required[i]}, i + 1)]
            continue
        g = h if len(kept) == h.edge_count else h.memo.get(kept)
        if g is None:
            g = h.memo[kept] = new_hypergraph(h.m, h.n, kept)
            _share_blocks((h, g))
        if q.pinned is None:
            total += sign * _plain(g, d, d)[d]
        else:
            total += sign * Fraction(_enumerate_table(g, d, (), q.pinned).get((), 0), factorial(d))
    return total


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
        if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d <= self.d_max:
            raise ValidationError(f"order {d!r} is not an integer in 0..{self.d_max}")
        if (d, q) not in self.entries:
            raise ValidationError(f"query {q!r} was not part of this table")
        return self.entries[(d, q)]


def trace_table(
    h: UniformHypergraph,
    d_max: int,
    queries: Sequence[LocalTraceQuery] = (),
    budget: Budget | None = None,
) -> TraceTable:
    """Batch plain and localized traces of orders 0..d_max: each entry
    reads the route of its own pointwise call, and the calls share the
    state kept with h and its sub-hosts."""
    qs = tuple(queries)
    _check(h, d_max, budget, qs)
    entries: dict[tuple[int, LocalTraceQuery | None], Fraction] = {(0, None): _order_zero(h)}
    entries.update(((d, None), value) for d, value in _plain(h, 1, d_max).items())
    for q in dict.fromkeys(qs):
        entries[0, q] = Fraction(0) if q.constrains_positively else _order_zero_local(h)
        entries.update(((d, q), _local(h, d, q)) for d in range(1, d_max + 1))
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
