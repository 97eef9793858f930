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
cut vertices.  A pinned value at v is an entry of the profile at v.

A rooting table holds the order-d rootings of a block
(``hypergraph.block_tree``), summed by their root counts at every vertex of
the block, as integer numerators over d!.  On m = 2 it reads
one rooting of each reversal pair from the enumerator and counts a
rooting that is not its own reversal twice, as the pair shares its
root counts and its weight (``euler``'s docstring).  A host keeps one
store of them in ``h.memo``, read by all of its forests and sub-hosts.
Plain traces and ``composition``'s profiles factor over the host's
block-cut forest, the paper's cut-vertex theorem, kept in ``h.memo``
per root; a plain trace shares the forest of a profile at the host's
first vertex on an edge.  On a host of one block, a plain or pinned
trace reads that block's table at its order alone, summed by the root
count at the root.  So the store is the one place where rootings are
enumerated.

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
  vertices below), from the rooting table of the block alone summed
  onto those vertices: ``tau * d_B!/prod c! * prod phi(r(v))`` over
  the rooted vertices that are not keyed.
* A block is relabeled onto 0..k-1 in increasing vertex order, and the
  relabeled block and the order key its rooting table in the store.
  So equal blocks (every single edge, for one) are enumerated once per
  order they have rootings at, whatever vertices their readers key: the
  end and middle blocks of a path, or a one-block host traced plainly
  and profiled at any anchor, read one table.  Hosts computed together,
  the two of an audit or the classes of a scan, share one store
  (``_share_blocks``).  A table enters the store only once it is
  complete, so a forest dropped part-way through an order leaves the
  store valid for the hosts still reading it.
* One DP joins them, children first.  At a cut vertex w, ``C_w[sigma]``
  is the product over its child blocks of ``1 + sum_t x^t G_B[t]``, and
  ``A_w(s) = sum_sigma C_w[sigma] * phi(s + sigma)``.  A child block
  with t roots at its parent adds to ``G_B[t]`` each entry times
  ``A_w(t_w)`` for every lower cut vertex w it roots.
* Every block hangs from a vertex: the search of ``block_tree`` that
  finds the blocks starts a component at a vertex, its root, and splits
  off every block below the vertex above it, children first.  A forest
  starts at its root and hangs every other component from its first
  vertex.  A root joins the blocks through it as a cut vertex with
  nothing above it, so a root that is a cut vertex is no special case.
* Every rooting has one topmost element: a cut vertex or a root,
  adding ``sum_{sigma>=1} C_w[sigma] * phi(sigma)``, or a block not
  rooted at the vertex above it, adding those entries.  The total at
  mass d is ``Tr_d * d! * (m-1)^(d-n) / d``.  The anchor's top term at
  mass k per sigma = r(anchor) >= 1, ``C_a[sigma] * phi(sigma)``,
  scaled as the total is, is the profile entry ``Tr_{k;sigma}``.
* The DP state (``G_B``, ``C_w``, ``A_w(s)``, the product of the
  ``A_w(t_w)`` a block entry needs, the totals, and the row of
  ``phi(r)`` to the order reached, the only source of phi, which
  ``A_w(s)``, the top terms, the block tables and the reads index)
  lives with the forest, every polynomial keyed mass first,
  mass -> {root count: coefficient}, and ``A_w(s)`` one column at
  count 0.  One routine grows every product of two or more factors,
  ``C_w`` or a block entry's, by its mass-k coefficient, which reads
  only the masses up to k of the factors and joins only the masses i
  and k - i where both have entries.  So each order extends every
  polynomial at its mass, children first, and an order already reached
  is read back.  A root count first seen at order d gets its ``A_w(s)``
  from ``C_w`` and its product from that routine over the masses below
  d.  A block whose every edge has a vertex on no other of its edges (a
  single edge, a loose cycle) has rootings only at multiples of m, its
  order step, and is read at no other order.  A mass off the multiples
  of the gcd of the orders with rootings so far (a hypertree's masses
  off the multiples of m) is zero throughout and is skipped.

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
from typing import Iterable, Sequence

from ._symmetry import _Group, _Orbits
from .config import Budget, default_budget
from .errors import InfeasibleQuery, LimitExceeded, NotAGraph, ValidationError
from .euler import _check_order, contribution_parts, enumerate_rootings
from .hypergraph import UniformHypergraph, _check_vertex, _labeling, block_tree, new_hypergraph


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


def _enumerate_table(h: UniformHypergraph, d: int, group: _Group) -> dict[tuple[int, ...], int]:
    """The order-d rooting table of h, keyed by the root counts at every
    vertex of h, read from the enumerator reduced by ``group``, a group
    of automorphisms of h.  Rootings of one k-vector share their root
    counts, so each key is built once per k-vector.  On m = 2 the
    enumerator yields one rooting of each reversal pair, and a rooting
    that is not its own reversal counts twice: the pair shares its key
    and its weight.  The enumerator yields only the rootings whose key
    is the least of its orbit, and each such entry is copied onto the
    rest of the orbit, closed once by the enumerator: the automorphisms
    map the rootings of one key onto those of the other, weight for
    weight.  Where the enumerator keeps one k-vector of an orbit under
    automorphisms fixing the key, its rootings count once per k-vector
    of the orbit."""
    table: dict[tuple[int, ...], int] = {}
    k_vector, key, size = None, (), 1
    vertices, zeros = range(h.n), (0,) * h.n
    paired = h.m == 2
    orbits = _Orbits(group)
    for mat in enumerate_rootings(h, d, orbits=orbits):
        if mat.k_vector is not k_vector:
            k_vector = mat.k_vector
            key = tuple(map(mat.root_counts.get, vertices, zeros))
            size = orbits.sizes.get(k_vector, 1)
        part = contribution_parts(mat, h.n) * size
        if paired and any(a != b for a, b in mat.counts):
            part *= 2
        table[key] = table.get(key, 0) + part
    for key, part in list(table.items()):
        table.update(dict.fromkeys(orbits.of.get(key, ()), part))
    return table


def _plain(h: UniformHypergraph, d: int) -> Fraction:
    """Tr_d of h for d >= 1, read at its first vertex on an edge."""
    return _read(h, d, h.edges[0][0] if h.edges else 0)


def _profile(h: UniformHypergraph, anchor: int, d_max: int) -> dict[tuple[int, int], Fraction]:
    """The nonzero Tr_{d;t} of h at the anchor for 1 <= t <= d <= d_max:
    the top terms ``C_a[t] * phi(t)`` of h's block forest rooted at the
    anchor, scaled."""
    forest = _forest(h, anchor, d_max)
    c_a = forest.roots[anchor].joined[-1]
    return {(d, t): forest.scaled(d, c_a[d][t] * forest.phi[t])
            for d in range(1, d_max + 1) if d in c_a for t in sorted(c_a[d]) if t}


def _read(h: UniformHypergraph, d: int, v: int, t: int | None = None) -> Fraction:
    """Tr_d of h without t, else Tr_{d;t} at v, for d >= 1 from h's
    forest rooted at v: ``alone`` on one block, else the total or the
    top term ``C_v[t] * phi(t)``."""
    forest = _forest(h, v, 0)
    if len(forest.blocks) == 1:
        return forest.alone(d, t)
    joined = _forest(h, v, d).roots[v].joined[-1]
    c = forest.totals[d] if t is None else joined.get(d, {}).get(t, 0) * forest.phi[t]
    return forest.scaled(d, c)


_STORE = "block tables"  # the h.memo key of the store shared by h's forests


def _forest(h: UniformHypergraph, anchor: int, d_max: int) -> _BlockForest:
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

Columns = dict[int, dict[int, int]]  # mass first: k -> {root count: coefficient}


@cache
def _row(k: int) -> tuple[int, ...]:
    """The binomial row ``C(k, 0..k)``."""
    return tuple(comb(k, i) for i in range(k + 1))


def _weigh(phi: list[int], col: dict[int, int], s: int) -> int:
    """``sum_sigma col[sigma] * phi[s + sigma]`` on a forest's phi row; s = 0 a top term."""
    return sum(v * phi[s + sigma] for sigma, v in col.items())


@dataclass
class _Product:
    """A running product of mass-first ``factors``: ``joined[i]`` is that
    of the first i + 1 (the first factor itself, or 1 without one), so
    ``joined[-1]`` is the whole, with a column only at nonzero masses."""

    factors: list[Columns]
    joined: list[Columns] = field(init=False)

    def __post_init__(self) -> None:
        self.joined = self.factors[:1] or [{0: {0: 1}}]
        self.joined += [{} for _ in self.factors[1:]]
        self.grow(0, _row(0))

    def grow(self, k: int, row: tuple[int, ...]) -> None:
        """Extend the running products at mass k; ``row`` is ``C(k, 0..k)``.
        Only the masses i and k - i at which both factors have entries join."""
        for prev, cur, factor in zip(self.joined, self.joined[1:], self.factors[1:]):
            col: dict[int, int] = {}
            for i, p in prev.items():
                if g := factor.get(k - i):
                    for sigma, a in p.items():
                        a *= row[i]
                        for t, b in g.items():
                            col[sigma + t] = col.get(sigma + t, 0) + a * b
            if col:
                cur[k] = col


@dataclass
class _Cut(_Product):
    """A cut vertex w, or a root a component hangs from: the product of
    its child blocks' ``sums``, whose whole is ``C_w``, and ``below[s]``,
    ``A_w(s)``, for every s the block above has rooted w with so far."""

    below: dict[int, Columns] = field(default_factory=dict)


@dataclass
class _Block:
    """One block of the forest: its edges relabeled onto 0..k-1 in
    increasing vertex order, the cut vertices below it, where its
    ``keyed`` vertices (the vertex above, then the cut vertices below)
    sit in ``host``, and its part of the DP state.  ``weights`` is
    ``W_B``, order -> ``table``'s {root counts at the keyed vertices:
    weight}; ``products`` maps the root counts at the cut vertices below
    to the product of their ``A_w(t_w)`` with t_w > 0, kept in ``grown``
    if of two or more; ``sums`` is ``1 + sum_t x^t G_B[t]``, 1 at mass 0
    and t = 0.  ``step`` is m if each edge has a vertex v on no other
    edge, where balance reads ``m * r(v) = k_e``, else 1."""

    host: UniformHypergraph
    cuts: list[_Cut]
    keyed: tuple[int, ...]
    sums: Columns
    step: int
    weights: dict[int, dict[tuple[int, ...], int]] = field(default_factory=dict)
    products: dict[tuple[int, ...], Columns] = field(default_factory=dict)
    grown: list[_Product] = field(default_factory=list)


# a relabeled block and an order -> its rooting table at that order, and
# a relabeled block -> generators of its automorphism group, with their
# basic orbits and their action on the block's edges
BlockTables = dict[
    tuple[UniformHypergraph, int] | UniformHypergraph,
    dict[tuple[int, ...], int] | list[tuple[int, ...]],
]


class _BlockForest:
    """The block-cut forest of one host, the tables of its blocks and the
    DP that joins them, extended one order at a time: a run of calls on
    it (an Estrada series, an audit, a profile) computes each DP
    coefficient once.  Its blocks come children first, as ``block_tree``
    splits them off searching from the anchor, and each component hangs
    from one vertex of ``roots``: the anchor's from the anchor (empty on
    no edge), every other from its first vertex on an edge.  ``store``
    maps a relabeled block and an order to the block's rooting table at
    that order, so equal blocks, of this host or of the hosts sharing
    the store, are enumerated at most once per order whatever they key;
    it also keeps each relabeled block's automorphism generators, found
    once, for the enumerations to reduce by."""

    def __init__(self, h: UniformHypergraph, store: BlockTables, anchor: int) -> None:
        self.m, self.n = h.m, h.n
        self.store = store
        # children first: the blocks hanging from a vertex are built
        # before the block above them, which joins them at that vertex
        hanging: dict[int, list[Columns]] = {anchor: []}
        self.blocks: list[_Block] = []
        for edge_ids, up in block_tree(h, anchor):
            vs = sorted({v for i in edge_ids for v in h.edges[i]})
            kids = [w for w in vs if w != up and w in hanging]  # cut vertices below
            local = {v: i for i, v in enumerate(vs)}
            host = new_hypergraph(
                h.m, len(vs), [[local[v] for v in h.edges[i]] for i in edge_ids]
            )
            step = h.m if all(any(host.degrees[v] == 1 for v in e) for e in host.edges) else 1
            block = _Block(host, [_Cut(hanging.pop(w)) for w in kids],
                           tuple(local[v] for v in (up, *kids)), {0: {0: 1}}, step)
            self.blocks.append(block)
            hanging.setdefault(up, []).append(block.sums)
        self.roots = {w: _Cut(sums) for w, sums in hanging.items()}  # nothing above them
        self.step = 0  # the gcd of the orders with rootings so far
        self.totals: list[int] = [0]  # the total at every mass reached
        self.phi: list[int] = [0]  # phi(r) to the order d reached: s + sigma <= 2d/m <= d
        self.single: dict[int, dict[int, int]] = {}  # see alone

    def extend(self, d_max: int) -> None:
        """Extend the forest, its phi row first, to order d_max."""
        for d in range(len(self.totals), d_max + 1):
            self.phi.append(self.phi[-1] * (self.m - 1) * (d - 1) if d > 1 else 1)
            self._fill(d)
            if self.step and d % self.step == 0:
                self._extend(d)
            else:  # no sum of the orders with rootings so far reaches mass d
                self.totals.append(0)

    def scaled(self, k: int, c: int) -> Fraction:
        """The trace at order k of a total or top term c at mass k."""
        return Fraction(k * (self.m - 1) ** self.n * c, (self.m - 1) ** k * factorial(k))

    def alone(self, d: int, t: int | None = None) -> Fraction:
        """Tr_d of a forest of one block, or Tr_{d;t} at its root, from
        the block's rooting table at order d alone (the DP would fill
        every lower order first): its numerators over d!, summed by the
        root count at the root once per order, times ``(m-1)^(n - n_B)``."""
        block, r = self.blocks[0], self.blocks[0].keyed[0]
        if d not in self.single:
            sums = self.single[d] = {}
            for counts, num in self.rootings(block, d).items():
                sums[counts[r]] = sums.get(counts[r], 0) + num
        num = sum(self.single[d].values()) if t is None else self.single[d].get(t, 0)
        return Fraction(num * (self.m - 1) ** (self.n - block.host.n), factorial(d))

    def rootings(self, block: _Block, d: int) -> dict[tuple[int, ...], int]:
        """The block's rooting table at order d from the store, enumerated
        into it if absent; empty, unread, at an order off the multiples
        of the block's step."""
        if d % block.step:
            return {}
        key = (block.host, d)
        rootings = self.store.get(key)
        if rootings is None:
            generators = self.store.get(block.host)
            if generators is None:
                # a single edge's one key per order is fixed by every automorphism
                generators = self.store[block.host] = _Group(
                    block.host, _labeling(block.host)[1] if block.host.edge_count > 1 else [])
            # stored only once complete: a fill cut short leaves the store valid
            rootings = self.store[key] = _enumerate_table(block.host, d, generators)
        return rootings

    def table(self, block: _Block, d: int) -> dict[tuple[int, ...], int]:
        """``W_B[d; t]`` per root counts t at the block's keyed vertices:
        the sum over its order-d rootings of ``tau * d!/prod c! * prod
        phi(r(v))`` over its rooted vertices that are not keyed, from
        its ``rootings`` summed onto the keyed vertices."""
        sums: dict[tuple[int, ...], int] = {}
        for counts, num in self.rootings(block, d).items():
            ts = tuple(counts[i] for i in block.keyed)
            sums[ts] = sums.get(ts, 0) + num
        m, den = self.m, d * (self.m - 1) ** block.host.n
        return {ts: num * (m - 1) ** d // (den * prod(self.phi[t] for t in ts if t))
                for ts, num in sums.items()}

    def _fill(self, d: int) -> None:
        """Add order d to the weights of every block it is on the step of.
        New root counts get their DP polynomials here, over the masses reached."""
        for block in self.blocks:
            if d % block.step:
                continue
            table = self.table(block, d)
            if table:
                self.step = gcd(self.step, d)
                block.weights[d] = table
            for ts in table:
                kappa = ts[1:]
                if kappa not in block.products:
                    block.products[kappa] = self._product(block, kappa)

    def _product(self, block: _Block, kappa: tuple[int, ...]) -> Columns:
        """The product of the ``A_w(t_w)`` with t_w > 0 in kappa; one of two
        or more joins ``grown``, caught up over the masses reached on the
        order step, off which every mass is zero."""
        factors = [self._below(cut, t) for cut, t in zip(block.cuts, kappa) if t]
        if len(factors) < 2:
            return factors[0] if factors else {0: {0: 1}}
        product = _Product(factors)
        for k in range(self.step, len(self.totals), self.step):
            product.grow(k, _row(k))
        block.grown.append(product)
        return product.joined[-1]

    def _below(self, cut: _Cut, s: int) -> Columns:
        """``A_w(s) = sum_sigma C_w[sigma] * phi(s + sigma)`` as one
        column, computed over the masses reached when s is new."""
        if s not in cut.below:
            cut.below[s] = {k: {0: _weigh(self.phi, col, s)} for k, col in cut.joined[-1].items()}
        return cut.below[s]

    def _join(self, cut: _Cut, k: int, row: tuple[int, ...]) -> int:
        """Grow ``C_w`` and the ``A_w(s)`` of a cut by their columns at
        mass k, and return its top term ``sum_{sigma>=1} C_w[sigma] *
        phi(sigma)`` there; ``row`` is ``C(k, 0..k)``."""
        cut.grow(k, row)
        col = cut.joined[-1].get(k)
        if not col:
            return 0
        for s, a in cut.below.items():
            a[k] = {0: _weigh(self.phi, col, s)}
        return _weigh(self.phi, col, 0)

    def _extend(self, k: int) -> None:
        """Extend every DP polynomial by its coefficient at mass k (see
        the module docstring) and record the total there.  Blocks come
        children first and the roots last, so every polynomial is
        extended after those it is built from."""
        row = _row(k)
        top = 0
        for block in self.blocks:
            for cut in block.cuts:
                top += self._join(cut, k, row)
            for product in block.grown:
                product.grow(k, row)
            col = {}
            for d, table in block.weights.items():
                for ts, weight in table.items():
                    if p := block.products[ts[1:]].get(k - d):
                        c = p[0] * row[d] * weight
                        if ts[0]:
                            col[ts[0]] = col.get(ts[0], 0) + c
                        else:
                            top += c
            if col:
                block.sums[k] = col
        self.totals.append(top + sum(self._join(root, k, row) for root in self.roots.values()))


def trace(h: UniformHypergraph, d: int, budget: Budget | None = None) -> Fraction:
    """Exact order-d trace of the adjacency tensor of h."""
    _check(h, d, budget)
    return _plain(h, d) if d else _order_zero(h)


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
        total += sign * (_read(g, d, *q.pinned) if q.pinned else _plain(g, d))
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
    entries.update(((d, None), _plain(h, d)) for d in range(1, d_max + 1))
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
