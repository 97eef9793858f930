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

Without an ``_symmetry._Orbits`` memo the enumerator yields every
rooting, the oracle for the reduced mode below that block tables read.
Given one, it yields a single edge's one rooting with no search: by
balance ``m * r(v) = k_e = d``, so at an order m divides, r(v) = d/m.

Enumeration over all rootings of total multiplicity ``d`` works in two
stages.  The first assigns edge multiplicities ``k_e`` summing to ``d``,
in lexicographic order; balance fixes ``r(v) = (sum of incident k_e) /
m``.  It takes a target per vertex, ``-1`` for free: each ``k_e`` is
capped by the room left at the targeted vertices of ``e`` and forced at
the edge that is the last of one, and at the last edge of a free vertex
it steps through the one residue mod m that makes the vertex's incident
sum divisible.  It runs with every vertex free, or with a whole
root-count vector as its targets (below).  The second distributes
each selected ``k_e`` over the vertices of ``e`` against the remaining
root budgets.  It keeps the incident sums in one load array and takes
each edge's ``k_e`` out of it on entry, so the array then holds exactly
what the later edges can still root at each vertex; that gives exact
lower and upper bounds and no dead ends.  The root budgets before stage
two are the root counts of every rooting of that k-vector.

On a 2-uniform host each rooting F has a reversal: every row swapped,
its digraph with every arc reversed.  Balance gives ``r(v) = deg_k(v)/2
= deg_k(v) - r(v)``, so the reversal is a rooting of the same k-vector
with the same root counts, support and ``prod c!``.  In an Eulerian
digraph out-degrees equal in-degrees, so the reversed digraph's
Laplacian is the transpose of the original's and their principal minors
agree: the two weigh the same.  Given a memo, stage two yields one
rooting of each pair, the one whose first row with unequal entries
has more roots at the edge's first vertex, and a rooting that is its
own reversal (every row equal) once.  While the rows so far are equal,
the current row's first entry starts at ``ceil(k/2)``, and a forced last
row that breaks the tie the wrong way is dropped.

An automorphism g of the host maps every rooting to a rooting: row
``e`` moves to the edge ``g(e)``, its entries to the images of their
vertices.  The image has the root counts ``r`` moved to ``g.r``, a
relabeled digraph and the same entries c, so it weighs the same.  The
memo holds a group G of automorphisms, given by generators (maybe
none); the support test and stage two run only for the k-vectors whose
root-count vector is the lexicographically least of its orbit under G,
and a caller summing by root counts copies each sum onto the rest of
the orbit.  Each orbit is closed under the generators once, when the
first vector in it comes up, and remembered in the memo for the rest
of the call and for that copy.

On a host with more edges than vertices, the compositions of d over
the edges outnumber those over the vertices at every d >= 2.  There,
given generators, stage one is not run free and filtered; the
candidate root-count vectors are listed first, vertex by vertex, under
bounds every least vector with rootings meets (``_symmetry``'s
docstring), and stage one runs targeted at each one that is the least
of its orbit.  The targeted searches yield distinct k-vectors, each in
lexicographic order, so sorted together they give the sequence of the
free route.

The elements of G that fix a least vector r, its stabilizer, permute
the k-vectors with root counts r: g maps the rootings of k onto those
of ``g.k``, with root counts ``g.r = r``, an isomorphic support and
equal weights.  So the rootings of every k-vector of one orbit under
any subgroup H of the stabilizer weigh the same in sum (on m = 2 the
sum over one rooting per reversal pair, a pair counted twice, is that
full sum), and a table keyed by root counts stays exact if it weighs
the rootings of one k-vector per orbit of H times the orbit's size,
whichever subgroup H is: a smaller H only leaves more k-vectors.
On the targeted route H is generated by those of G's generators that
fix r, kept per group in a pool with their action on the edges; only
the least k-vector of each orbit of H goes on to the support test and
stage two, and the memo records its orbit size.

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
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from ._symmetry import _Orbits, _root_vectors
from .config import Budget, default_budget
from .errors import (
    EmptyGraph,
    LimitExceeded,
    NotEulerian,
    ValidationError,
    VertexOutOfRange,
    _check_int,
)
from .hypergraph import Edge, UniformHypergraph, connected


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
        if not isinstance(self.counts, tuple) or len(self.counts) != h.edge_count:
            raise ValidationError("counts must be a tuple with one row per host edge")
        kvec: list[int] = []
        roots: dict[int, int] = {}
        degree = [0] * h.n
        for row, edge in zip(self.counts, h.edges):
            if not isinstance(row, tuple) or len(row) != h.m:
                raise ValidationError(f"counts row {row!r} is not a tuple of m entries")
            for c in row:
                _check_int("root count", c, 0)
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
    """A directed multigraph given by arc multiplicities: distinct integer
    vertices, and arcs between them with non-negative integer
    multiplicities."""

    vertices: tuple[int, ...]
    arcs: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        for v in self.vertices:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"digraph vertex {v!r} is not an integer")
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


def enumerate_rootings(
    h: UniformHypergraph, d: int, *, orbits: _Orbits | None = None
) -> Iterator[RootCountMatrix]:
    """Yield every Euler rooting of total multiplicity d.

    Given ``orbits``, a memo over a group of automorphisms of h, yield
    in the order of the full enumeration only (the module docstring):
    on a 2-uniform host one rooting of each pair {F, reversal of F};
    the rootings whose root counts, as a vector over 0..n-1, are the
    lexicographically least of their orbit under the group; and on the
    targeted route the least k-vector of each orbit under the group's
    generators fixing its root counts, with its orbit size in the
    memo's ``sizes``.
    """
    _check_order(d, 1)

    m, n = h.m, h.n
    edges = h.edges
    if orbits is not None and h.edge_count == 1:
        r = d // m
        if r * m == d:  # the one rooting (module docstring)
            yield RootCountMatrix._trusted(h, ((r,) * m,), (d,), dict.fromkeys(edges[0], r))
        return
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

    def distribute(i: int, tied: bool) -> Iterator[RootCountMatrix]:
        # tied: pairing, with every row so far equal to its reversal
        edge, k, index = chosen[i]
        for v in edge:
            load[v] -= k
        lows = [x if (x := rem[v] - load[v]) > 0 else 0 for v in edge]
        highs = [x if (x := rem[v]) < k else k for v in edge]
        if tied and lows[0] < (k + 1) // 2:
            lows[0] = (k + 1) // 2
        for row in _bounded_compositions(k, lows, highs):
            for v, c in zip(edge, row):
                rem[v] -= c
            rows[index] = row
            still = tied and row[0] == row[1]
            if i + 1 != last:
                yield from distribute(i + 1, still)
            elif not still or rem[chosen[last][0][0]] >= rem[chosen[last][0][1]]:
                yield complete()  # else the forced row is the reversal's
            for v, c in zip(edge, row):
                rem[v] += c
        rows[index] = zero
        for v in edge:
            load[v] += k

    free = [-1] * n
    if orbits is None or not orbits.group:
        multiplicities = _balanced_multiplicities(edges, n, m, d, free)
    elif h.edge_count > n:
        # list the least root-count vectors, search at each and keep the
        # least k-vector of each orbit of those found
        multiplicities = []
        for r in _root_vectors(h, d, orbits.group.base_orbits):
            if orbits.is_least(r):
                found = list(_balanced_multiplicities(edges, n, m, d, r))
                multiplicities += orbits.least_k_vectors(found, r)
        multiplicities.sort(key=itemgetter(0))
    else:
        multiplicities = (
            (k_vector, load)
            for k_vector, load in _balanced_multiplicities(edges, n, m, d, free)
            if orbits.is_least(tuple(s // m for s in load)))
    pair = orbits is not None and m == 2
    for k_vector, load in multiplicities:
        chosen = [(edges[i], k, i) for i, k in enumerate(k_vector) if k]
        support = [e for e, _, _ in chosen]
        if not connected({v for e in support for v in e}, support):
            continue
        last = len(chosen) - 1
        rem = [s // m for s in load]
        roots = {v: r for v, r in enumerate(rem) if r}
        # a single edge's row is forced and, on m = 2, its own reversal
        yield from distribute(0, pair) if last else [complete()]
        rows[chosen[last][2]] = zero


def _balanced_multiplicities(
    edges: tuple[Edge, ...], n: int, m: int, d: int, target: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Stage one: every multiplicity vector over ``edges`` summing to d,
    in lexicographic order, whose incident sum is m * target[v] at a
    vertex v with a target and divisible by m at a free vertex (target
    -1).  An edge's multiplicity k is capped by the room left at its
    targeted vertices and forced at the last edge of one; at the last
    edge of a free vertex it steps through the one residue mod m that
    makes the vertex's incident sum divisible.  The vector is yielded
    with a copy of its incident sums."""
    count = len(edges)
    if count == 0:
        return
    want = [m * t for t in target]
    closes: list[list[int]] = [[] for _ in range(count)]  # targeted vertices each edge is last at
    checks: list[list[int]] = [[] for _ in range(count)]  # free vertices each edge is last at
    for v, pos in {v: pos for pos, e in enumerate(edges) for v in e}.items():
        (closes if target[v] >= 0 else checks)[pos].append(v)
    capped = [[v for v in e if target[v] >= 0] for e in edges]
    end = count - 1
    load = [0] * n
    kvec = [0] * count

    def assign(pos: int, remaining: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        hi = remaining
        for v in capped[pos]:
            if want[v] - load[v] < hi:
                hi = want[v] - load[v]
        lo, step = 0, 1
        if pos == end or closes[pos]:
            # forced: the rest at the last edge, else the room left at
            # the targeted vertices this edge closes
            lo = remaining if pos == end else hi
            if lo > hi:
                return
            for v in closes[pos]:
                if want[v] - load[v] != lo:
                    return
        if checks[pos]:
            first = load[checks[pos][0]]
            for v in checks[pos]:
                if (load[v] - first) % m:
                    return
            lo += (-first - lo) % m
            step = m
        edge = edges[pos]
        for k in range(lo, hi + 1, step):
            if k:
                kvec[pos] = k
                for v in edge:
                    load[v] += k
            if pos == end:
                yield tuple(kvec), list(load)
            else:
                yield from assign(pos + 1, remaining - k)
            if k:
                for v in edge:
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
    if not isinstance(root, int) or isinstance(root, bool):
        raise ValidationError(f"root {root!r} is not an integer")
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
    _check_int("ambient vertex count", ambient_n, mat.host.n)
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
