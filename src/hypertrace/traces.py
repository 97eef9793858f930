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
non-negative ``int`` within the budget and every query is a
:class:`LocalTraceQuery` whose vertices lie in the host.

Every localized value at d >= 1 is a signed sum of plain or pinned
traces of sub-hosts.  Forbidding F gives the trace of h less the edges
meeting F, on the same n: a rooting roots no vertex of F exactly when
it selects no edge through one, and the weight reads only n.
Requiring R sums (-1)^|S| times that value with F | S forbidden over
the subsets S of R.  Root counts sum to d, so at most 2^min(|R|, d)
sub-hosts are read; each is kept in ``h.memo`` under the edges it
keeps, shares h's block tables and runs on the forest below if it has
cut vertices.  A pinned trace enumerates the rootings meeting the pin.

A rooting table holds the order-d rootings of a block
(``hypergraph.blocks``), summed by their root counts at the vertices
its reader keys on, as integer numerators over d!.  A host keeps one
store of them in ``h.memo``, read by all of its forests and sub-hosts.
Plain traces and ``composition``'s profiles factor over the host's
block-cut forest, the paper's cut-vertex theorem, kept in ``h.memo``
per anchor (``None`` for plain traces).  The plain trace of a host with
one block is that block's table at its order alone, as the forest
would fill every lower order first.

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
  root counts t at its keyed vertices (the vertex above it and the cut
  vertices below), from the rooting table of the block alone keyed on
  those vertices: ``tau * d_B!/prod c! * prod phi(r(v))`` over the
  rooted vertices that are not keyed.
* A block is relabeled with its keyed vertices first, in key order,
  and its other vertices after them in sorted order.  The relabeled
  block, its number of keyed vertices and the order then key its table
  in the store, so equal blocks (every single edge with as many keyed
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
  the vertex above it (or the first block of a component), adding
  those entries.  The total at mass d is ``Tr_d * d! * (m-1)^(d-n) / d``.
* A plain forest hangs each component from its first block.  A
  profile's forest hangs every block through its anchor from the
  anchor, which joins them as a cut vertex with nothing above it, so
  an anchor that is a cut vertex is no special case.  Its top term at
  mass k per sigma = r(anchor) >= 1, ``C_a[sigma] * phi(sigma)``,
  scaled as the total is, is the profile entry ``Tr_{k;sigma}``.
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
from functools import cache
from math import comb, factorial, gcd, prod
from typing import Iterable, Mapping, Sequence

from .config import Budget, default_budget
from .errors import InfeasibleQuery, LimitExceeded, NotAGraph, ValidationError
from .euler import _check_order, _check_pin, contribution_parts, enumerate_rootings
from .hypergraph import UniformHypergraph, _check_vertex, blocks, new_hypergraph


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
        for v in (*self.required, *self.forbidden):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"query entry {v!r} is not an integer")
        if self.required & self.forbidden:
            raise ValidationError(
                f"vertices {sorted(self.required & self.forbidden)} are both "
                "required and forbidden"
            )
        if self.pinned is not None:
            object.__setattr__(self, "pinned", _check_pin(self.pinned))
            if self.pinned[0] in self.forbidden:
                raise ValidationError(f"pinned vertex {self.pinned[0]} is forbidden")

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
    every query is a :class:`LocalTraceQuery` whose vertices lie in h."""
    _check_order(d)
    limit = (budget or default_budget()).cost_limit
    if h.edge_count * d > limit:
        raise LimitExceeded(
            f"trace cost {h.edge_count} edges * d={d} exceeds the budget "
            f"of {limit}; raise it explicitly to proceed"
        )
    for q in queries:
        if not isinstance(q, LocalTraceQuery):
            raise ValidationError(f"query {q!r} is not a LocalTraceQuery")
        pinned = [q.pinned[0]] if q.pinned else []
        for v in sorted(q.required | q.forbidden) + pinned:
            _check_vertex(h, v, "query vertex")


def _order_zero(h: UniformHypergraph) -> Fraction:
    return Fraction(h.n * (h.m - 1) ** (h.n - 1))


def _order_zero_local(h: UniformHypergraph) -> Fraction:
    return Fraction((h.m - 1) ** (h.n - 1))


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


def _plain(h: UniformHypergraph, d_min: int, d_max: int) -> dict[int, Fraction]:
    """Tr_d of h for 1 <= d_min <= d <= d_max: through the block forest
    on a host of several blocks, else from its one block's table at each
    order alone (the forest would fill every lower order first)."""
    forest = _forest(h, None, 0)
    if len(forest.blocks) == 1:
        return {d: forest.scaled(d, forest.table(forest.blocks[0], d).get((), 0))
                for d in range(d_min, d_max + 1)}
    forest = _forest(h, None, d_max)
    return {d: forest.scaled(d, forest.totals[d]) for d in range(d_min, d_max + 1)}


def _profile(h: UniformHypergraph, anchor: int, d_max: int) -> dict[tuple[int, int], Fraction]:
    """The nonzero Tr_{d;t} of h at the anchor for 1 <= t <= d <= d_max:
    the top terms ``C_a[t] * phi(t)`` of h's block forest rooted at the
    anchor, scaled."""
    forest = _forest(h, anchor, d_max)
    c_a = forest.anchor.joined[-1]
    return {(d, t): forest.scaled(d, c_a[t][d] * _phi(h.m, t))
            for d in range(1, d_max + 1) for t in sorted(c_a) if t and d in c_a[t]}


_STORE = "block tables"  # the h.memo key of the store shared by h's forests


def _forest(h: UniformHypergraph, anchor: int | None, d_max: int) -> _BlockForest:
    """h's block forest rooted at the anchor, kept in ``h.memo`` and
    extended to order d_max."""
    key = (_BlockForest, anchor)
    forest = h.memo.get(key)
    if forest is None:
        forest = h.memo[key] = _BlockForest(h, h.memo.setdefault(_STORE, {}), anchor)
    try:
        forest.extend(d_max)
    except BaseException:
        # an extension cut short leaves the DP part-way through an order
        del h.memo[key]
        raise
    return forest


def _share_blocks(hosts: Sequence[UniformHypergraph]) -> None:
    """Give the hosts without a store of block tables the first host's,
    or one new store, so that a block they share is enumerated once per
    order for all (an audit's two hosts, a scan's classes, sub-hosts)."""
    store = hosts[0].memo.get(_STORE, {})
    for h in hosts:
        h.memo.setdefault(_STORE, store)


# --- the block route ------------------------------------------------------

Poly = dict[int, int]  # exponential generating function: mass k -> coefficient of y^k/k!


@cache
def _row(k: int) -> tuple[int, ...]:
    """The binomial row ``C(k, 0..k)``."""
    return tuple(comb(k, i) for i in range(k + 1))


def _mass(row: tuple[int, ...], p: Poly, q: Poly) -> int:
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
    """A cut vertex w, or the anchor, and its part of the DP state: the
    ``sums`` of its child blocks as ``factors``; ``joined[i][sigma]``,
    their product over the first i + 1 at ``x^sigma`` (the first factor
    itself, or 1 without a child), so ``joined[-1]`` is ``C_w``; and
    ``below[s]``, ``A_w(s)`` for every s the block above has rooted w
    with so far."""

    factors: list[dict[int, Poly]]
    joined: list[dict[int, Poly]] = field(init=False)
    below: dict[int, Poly] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.joined = self.factors[:1] or [{0: {0: 1}}]
        self.joined += [{0: {0: 1}} for _ in self.factors[1:]]


@dataclass
class _Block:
    """One block of the forest: its edges relabeled onto 0..k-1 with the
    ``keyed`` vertices first, the vertex above it (None at a component's
    first block), the cut vertices below it, and its part of the DP
    state.  ``weights`` is ``W_B``, root counts at the keyed vertices ->
    {order: weight}; ``products`` maps the root counts at the cut
    vertices below to the ``A_w(t_w)`` with t_w > 0 and their running
    products, the last one being the whole product; ``sums`` is
    ``1 + sum_t x^t G_B[t]`` by t, the 1 at t = 0."""

    host: UniformHypergraph
    up: int | None
    cuts: list[_Cut]
    keyed: int  # up (if any), then the cut vertices below, are 0..keyed-1 in host
    sums: dict[int, Poly]
    weights: dict[tuple[int, ...], Poly] = field(default_factory=dict)
    products: dict[tuple[int, ...], tuple[list[Poly], list[Poly]]] = field(default_factory=dict)


BlockTables = dict[tuple[UniformHypergraph, int, int], dict[tuple[int, ...], int]]


class _BlockForest:
    """The block-cut forest of one host rooted at an anchor (or None),
    the tables of its blocks and the DP that joins them, extended one
    order at a time: a run of calls on it (an Estrada series, an audit,
    a profile) computes each DP coefficient once.  ``store`` maps a
    relabeled block, its number of keyed vertices and an order to the
    block's weights at that order, so equal blocks, of this host or of
    the hosts sharing the store, are enumerated once per order."""

    def __init__(self, h: UniformHypergraph, store: BlockTables, anchor: int | None) -> None:
        self.m, self.n = h.m, h.n
        self.store = store
        parts = blocks(h)
        verts = [sorted({v for i in b for v in h.edges[i]}) for b in parts]
        at: dict[int | None, list[int]] = {}
        for b, vs in enumerate(verts):
            for v in vs:
                at.setdefault(v, []).append(b)
        # preorder; the blocks through the anchor hang from it, other
        # components from their first block, other blocks from a cut vertex
        parent: dict[int, int | None] = {}
        order: list[int] = []
        starts = [(b, anchor) for b in at.get(anchor, ())] + [(b, None) for b in range(len(parts))]
        for root, up in starts:
            if root in parent:
                continue
            parent[root] = up
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
        sums = [{0: {0: 1}} for _ in parts]
        for b, (edge_ids, vs) in enumerate(zip(parts, verts)):
            up = parent[b]
            kids = [w for w in vs if w != up and len(at[w]) > 1]  # cut vertices below
            keyed = ([] if up is None else [up]) + kids
            # keyed vertices first, so that equal blocks are equal hosts
            local = {v: i for i, v in enumerate(keyed + [v for v in vs if v not in keyed])}
            host = new_hypergraph(
                h.m, len(vs), [[local[v] for v in h.edges[i]] for i in edge_ids]
            )
            cuts = [_Cut([sums[c] for c in at[w] if c != b]) for w in kids]
            self.blocks.append(_Block(host, up, cuts, len(keyed), sums[b]))
        self.anchor = _Cut([sums[c] for c in at.get(anchor, [])])  # nothing above it
        self.step = 0  # the gcd of the orders with rootings so far
        self.totals: list[int] = [0]  # the total at every mass reached

    def extend(self, d_max: int) -> None:
        """Extend the forest to order d_max."""
        for d in range(len(self.totals), d_max + 1):
            self._fill(d)
            if self.step and d % self.step == 0:
                self._extend(d)
            else:  # no sum of the orders with rootings so far reaches mass d
                self.totals.append(0)

    def scaled(self, k: int, c: int) -> Fraction:
        """The trace at order k of a total or top term c at mass k."""
        return Fraction(k * (self.m - 1) ** self.n * c, (self.m - 1) ** k * factorial(k))

    def table(self, block: _Block, d: int) -> dict[tuple[int, ...], int]:
        """``W_B[d; t]`` per root counts t at the block's keyed vertices:
        the sum over its order-d rootings of ``tau * d!/prod c! * prod
        phi(r(v))`` over its rooted vertices that are not keyed, read
        from the store or enumerated into it."""
        key = (block.host, block.keyed, d)
        table = self.store.get(key)
        if table is None:
            m, table = self.m, {}
            for ts, num in _enumerate_table(block.host, d, range(block.keyed)).items():
                den = d * (m - 1) ** block.host.n * prod(_phi(m, t) for t in ts if t)
                table[ts] = num * (m - 1) ** d // den
            # stored only once complete: a fill cut short leaves the store valid
            self.store[key] = table
        return table

    def _fill(self, d: int) -> None:
        """Add order d to every block's weights.  Root counts new at this
        order get their DP polynomials here, over the masses reached."""
        for block in self.blocks:
            table = self.table(block, d)
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
            running.append({k: c for k in range(len(self.totals)) if (c := _mass(_row(k), p, f))})
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

    def _join(self, cut: _Cut, k: int, row: tuple[int, ...]) -> int:
        """Extend ``C_w``, the partial products it is built from and the
        ``A_w(s)`` of a cut by their coefficients at mass k, and return
        its top term ``sum_{sigma>=1} C_w[sigma] * phi(sigma)`` there;
        ``row`` is ``C(k, 0..k)``."""
        for prev, cur, factor in zip(cut.joined, cut.joined[1:], cut.factors[1:]):
            for sigma, p in prev.items():
                for t, g in factor.items():
                    _add(cur, sigma + t, k, _mass(row, p, g))
        at_k = [(sigma, p[k]) for sigma, p in cut.joined[-1].items() if k in p]
        for s, a in cut.below.items():
            c = sum(v * _phi(self.m, s + sigma) for sigma, v in at_k)
            if c:
                a[k] = c
        return sum(v * _phi(self.m, sigma) for sigma, v in at_k if sigma)

    def _extend(self, k: int) -> None:
        """Extend every DP polynomial by its coefficient at mass k (see
        the module docstring) and record the total there.  Blocks come
        children first and the anchor last, so every polynomial is
        extended after those it is built from."""
        row = _row(k)
        top = 0
        for b in self.children_first:
            block = self.blocks[b]
            for cut in block.cuts:
                top += self._join(cut, k, row)
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
        self.totals.append(top + self._join(self.anchor, k, row))


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
