"""Uniform hypergraphs: validation, constructors, hypertrees, canonical forms.

Vertices are the integers ``0..n-1``.  Every edge is stored as a sorted
tuple of ``m`` distinct vertices and the edge list itself is sorted, so
structurally equal hypergraphs compare equal.  Instances are immutable;
all constructors and surgeries return fresh values.

Vertex id conventions for the generators:

* ``hyperpath(m, z)``: edge ``i`` occupies the consecutive block
  ``[i*(m-1), (i+1)*(m-1)]``; consecutive edges overlap in the single
  vertex ``(i+1)*(m-1)``.  The path ends are ``0`` and ``z*(m-1)``.
* ``hyperstar(m, z)``: vertex ``0`` is the center; edge ``i`` adds the
  fresh block ``1 + i*(m-1) .. (i+1)*(m-1)``.
* ``coalesce(h1, u, h2, v)``: ``h1`` keeps its ids, ``v`` maps onto
  ``u``, and the remaining ``h2`` vertices shift to ``n1..n1+n2-2``
  preserving their relative order.
* ``power(g, m)``: edge ``i`` of the graph gains the fresh vertices
  ``n + i*(m-2) .. n + (i+1)*(m-2) - 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .config import Budget, default_budget
from .errors import (
    DuplicateEdge,
    LimitExceeded,
    MixedUniformity,
    NonUniformEdge,
    NotAGraph,
    TrivialOperand,
    ValidationError,
    VertexOutOfRange,
)

VertexId = int
Edge = tuple[int, ...]


@dataclass(frozen=True)
class UniformHypergraph:
    """An m-uniform hypergraph on the vertex set 0..n-1.

    Invariants: m >= 2, n >= 1, every edge is a sorted tuple of m
    distinct in-range vertices, the edge tuple is sorted and free of
    duplicates.
    """

    m: int
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        _check_int("uniformity m", self.m, 2)
        _check_int("vertex count n", self.n, 1)
        canon = []
        for edge in self.edges:
            for v in edge:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValidationError(
                        f"vertex {v!r} in edge {tuple(edge)} is not an integer"
                    )
            vs = tuple(sorted(set(edge)))
            if len(vs) != self.m:
                raise NonUniformEdge(
                    f"edge {tuple(edge)} does not have exactly {self.m} distinct vertices"
                )
            if vs[0] < 0 or vs[-1] >= self.n:
                raise VertexOutOfRange(f"edge {vs} is not contained in 0..{self.n - 1}")
            canon.append(vs)
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise DuplicateEdge(f"edge {a} appears more than once")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for edge in self.edges:
            for v in edge:
                degs[v] += 1
        return tuple(degs)

    def degree(self, v: VertexId) -> int:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} is not in 0..{self.n - 1}")
        return self.degrees[v]

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the sorted tuple of incident edge indices."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, edge in enumerate(self.edges):
            for v in edge:
                inc[v].append(i)
        return tuple(tuple(ix) for ix in inc)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached_property
    def memo(self) -> dict:
        """Values other modules derive from this hypergraph and keep with
        it, by key; dropped with the hypergraph."""
        return {}


def new_hypergraph(m: int, n: int, edges: Iterable[Iterable[int]]) -> UniformHypergraph:
    """Validate and canonicalize an edge list into a hypergraph."""
    return UniformHypergraph(m, n, tuple(tuple(e) for e in edges))


def hyperpath(m: int, z: int) -> UniformHypergraph:
    """The m-uniform loose path with z edges on z*(m-1)+1 vertices."""
    _check_generator_args(m, z)
    edges = [tuple(range(i * (m - 1), i * (m - 1) + m)) for i in range(z)]
    return new_hypergraph(m, z * (m - 1) + 1, edges)


def hyperstar(m: int, z: int) -> UniformHypergraph:
    """The m-uniform star with z edges through the center vertex 0."""
    _check_generator_args(m, z)
    edges = [(0,) + tuple(range(1 + i * (m - 1), 1 + (i + 1) * (m - 1))) for i in range(z)]
    return new_hypergraph(m, z * (m - 1) + 1, edges)


def _check_generator_args(m: int, z: int) -> None:
    _check_int("uniformity m", m, 2)
    _check_int("edge count z", z, 1)


def _check_int(name: str, value: object, least: int) -> None:
    """Reject a value that is not an ``int`` (``bool`` included) or is
    below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_vertex(h: UniformHypergraph, v: object, name: str = "vertex") -> None:
    """Reject a v that is not an ``int`` (``bool`` included) or not a
    vertex of h."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"{name} {v!r} is not an integer")
    if not 0 <= v < h.n:
        raise VertexOutOfRange(f"{name} {v} is not in 0..{h.n - 1}")


def power(graph: UniformHypergraph, m: int) -> UniformHypergraph:
    """Blow a 2-uniform host up to uniformity m by padding each edge
    with m-2 fresh vertices."""
    if graph.m != 2:
        raise NotAGraph(f"power expects a 2-uniform host, got m={graph.m}")
    if m < 3:
        raise ValidationError(f"target uniformity must be >= 3, got {m}")
    pad = m - 2
    edges = []
    for i, (a, b) in enumerate(graph.edges):
        fresh = tuple(range(graph.n + i * pad, graph.n + (i + 1) * pad))
        edges.append((a, b) + fresh)
    return new_hypergraph(m, graph.n + pad * graph.edge_count, edges)


def coalesce(
    h1: UniformHypergraph, u: VertexId, h2: UniformHypergraph, v: VertexId
) -> UniformHypergraph:
    """Glue h2 onto h1 by identifying vertex v of h2 with vertex u of h1.

    No other vertex is shared, so the identified vertex separates the
    two operands in the result.
    """
    if h1.m != h2.m:
        raise MixedUniformity(f"cannot coalesce m={h1.m} with m={h2.m}")
    for h, w in ((h1, u), (h2, v)):
        _check_vertex(h, w)
        if h.n < 2 or h.edge_count < 1:
            raise TrivialOperand("coalescence operands must have an edge and >= 2 vertices")
        if not is_connected(h):
            raise ValidationError("coalescence operands must be connected")

    def relabel(j: int) -> int:
        if j == v:
            return u
        return h1.n + j - (1 if j > v else 0)

    edges = list(h1.edges) + [tuple(relabel(j) for j in e) for e in h2.edges]
    return new_hypergraph(h1.m, h1.n + h2.n - 1, edges)


@dataclass(frozen=True)
class AttachSpec:
    """One pendant attachment: glue ``sub`` onto the host by identifying
    ``sub_vertex`` with ``host_vertex``."""

    host_vertex: VertexId
    sub: UniformHypergraph
    sub_vertex: VertexId


def attach(host: UniformHypergraph, specs: Sequence[AttachSpec]) -> UniformHypergraph:
    """Iterated coalescence; host vertex ids remain valid throughout."""
    for spec in specs:
        _check_vertex(host, spec.host_vertex, "host vertex")
    result = host
    for spec in specs:
        result = coalesce(result, spec.host_vertex, spec.sub, spec.sub_vertex)
    return result


def connected(vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> bool:
    """Union-find test that the edges join the vertices into exactly one
    component; an empty vertex set is not connected.  Edges may only use
    listed vertices."""
    parent = {v: v for v in vertices}
    components = len(parent)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        r = find(edge[0])
        for w in edge[1:]:
            rw = find(w)
            if rw != r:
                parent[rw] = r
                components -= 1
    return components == 1


def is_connected(h: UniformHypergraph) -> bool:
    return connected(h.vertices, h.edges)


def blocks(h: UniformHypergraph) -> tuple[tuple[int, ...], ...]:
    """The blocks of h, each as the sorted tuple of its edge indices,
    ordered by their first edge.

    A block is a maximal set of edges that no single vertex separates:
    two edges share a block exactly when some cycle of the incidence
    graph passes through both.  The incidence graph has a node per
    vertex (``v``) and per edge (``n + i``); a depth-first search finds
    its biconnected components, but splits off a component only below
    a vertex node, so the pieces a single edge would separate stay in
    that edge's block.  Vertices on no edge belong to no block.
    """
    n = h.n
    neighbours = [[n + i for i in ix] for ix in h.incidence]
    neighbours += [list(e) for e in h.edges]
    disc = [0] * len(neighbours)
    low = [0] * len(neighbours)
    clock = 0
    stack: list[int] = []
    found: list[tuple[int, ...]] = []
    for root in range(n):
        if disc[root] or not neighbours[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        path = [(root, iter(neighbours[root]))]
        while path:
            node, rest = path[-1]
            for nxt in rest:
                if not disc[nxt]:
                    clock += 1
                    disc[nxt] = low[nxt] = clock
                    stack.append(nxt)
                    path.append((nxt, iter(neighbours[nxt])))
                    break
                low[node] = min(low[node], disc[nxt])
            else:
                path.pop()
                if not path:
                    continue
                parent = path[-1][0]
                low[parent] = min(low[parent], low[node])
                if parent < n and low[node] >= disc[parent]:
                    block = []
                    while True:
                        x = stack.pop()
                        if x >= n:
                            block.append(x - n)
                        if x == node:
                            break
                    found.append(tuple(sorted(block)))
    return tuple(sorted(found))


def cut_vertices(h: UniformHypergraph) -> frozenset[int]:
    """The vertices lying in more than one block."""
    seen: set[int] = set()
    cuts: set[int] = set()
    for block in blocks(h):
        vs = {v for i in block for v in h.edges[i]}
        cuts |= seen & vs
        seen |= vs
    return frozenset(cuts)


def is_hypertree(h: UniformHypergraph) -> bool:
    """Connected and acyclic: exactly z*(m-1)+1 vertices for z edges."""
    return h.edge_count >= 1 and h.n == h.edge_count * (h.m - 1) + 1 and is_connected(h)


def permute_vertices(h: UniformHypergraph, perm: Sequence[int]) -> UniformHypergraph:
    """Relabel vertices: new id of vertex v is perm[v]."""
    if sorted(perm) != list(range(h.n)):
        raise ValidationError("perm must be a permutation of 0..n-1")
    return new_hypergraph(h.m, h.n, [tuple(perm[v] for v in e) for e in h.edges])


def enumerate_hypertrees(
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


def _attach_pendant_edge(h: UniformHypergraph, v: VertexId) -> UniformHypergraph:
    fresh = tuple(range(h.n, h.n + h.m - 1))
    return new_hypergraph(h.m, h.n + h.m - 1, list(h.edges) + [(v,) + fresh])


# --- canonical form -------------------------------------------------------
#
# Individualization-refinement (McKay & Piperno, "Practical graph
# isomorphism, II", 2014).  Starting from the degree ranks, refine the
# vertex coloring until it is stable.  While some color class holds more
# than one vertex, take the class with the smallest color, give each of
# its vertices in turn a color of its own, and refine again.  At a leaf
# every vertex has its own color, so the coloring is a relabeling; the
# form is the sorted relabeled edge list, and the smallest over all
# leaves wins.


def canonical_form(h: UniformHypergraph, budget: Budget | None = None) -> bytes:
    """A byte string equal for exactly the isomorphic hypergraphs."""
    budget = budget or default_budget()
    if h.n > budget.canon_vertex_limit:
        raise LimitExceeded(
            f"canonical labeling of {h.n} vertices exceeds the configured "
            f"limit of {budget.canon_vertex_limit}"
        )
    # In a hypertree the stable color of a vertex fixes its rooted
    # incidence tree up to isomorphism (a tree is its own universal
    # cover).  So each class is an automorphism orbit, every choice in it
    # leads to the same form, and the first vertex is enough.
    one_path = is_hypertree(h)
    best: list[Edge] | None = None

    def search(colors: list[int]) -> None:
        nonlocal best
        colors = _refined_colors(h, colors)
        ranks = sorted(colors)
        repeated = [a for a, b in zip(ranks, ranks[1:]) if a == b]
        if not repeated:
            form = sorted(tuple(sorted(colors[v] for v in e)) for e in h.edges)
            if best is None or form < best:
                best = form
            return
        cell = [v for v, c in enumerate(colors) if c == repeated[0]]
        for v in cell[:1] if one_path else cell:
            search(_ranked([(c, w != v) for w, c in enumerate(colors)]))

    search(_ranked(list(h.degrees)))
    assert best is not None
    body = ";".join(",".join(map(str, e)) for e in best)
    return f"{h.m}|{h.n}|{body}".encode("ascii")


def _refined_colors(h: UniformHypergraph, colors: list[int]) -> list[int]:
    """Iterated neighborhood refinement of a vertex coloring, to stability."""
    for _ in range(h.n):
        sigs = []
        for v in range(h.n):
            around = sorted(
                tuple(sorted(colors[w] for w in h.edges[i] if w != v))
                for i in h.incidence[v]
            )
            sigs.append((colors[v], tuple(around)))
        refined = _ranked(sigs)
        if refined == colors:
            break
        colors = refined
    return colors


def _ranked(signatures: list) -> list[int]:
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def are_isomorphic(h1: UniformHypergraph, h2: UniformHypergraph,
                   budget: Budget | None = None) -> bool:
    if (h1.m, h1.n, h1.edge_count) != (h2.m, h2.n, h2.edge_count):
        return False
    return canonical_form(h1, budget) == canonical_form(h2, budget)


# --- JSON interchange -----------------------------------------------------


def to_json_dict(h: UniformHypergraph) -> dict:
    return {"m": h.m, "n": h.n, "edges": [list(e) for e in h.edges]}


def from_json_dict(payload: dict) -> UniformHypergraph:
    try:
        m = payload["m"]
        n = payload["n"]
        edges = payload["edges"]
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"hypergraph JSON needs m, n and edges: {exc}") from None
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise ValidationError("edges must be a list of vertex lists")
    return new_hypergraph(m, n, edges)


def dumps_json(h: UniformHypergraph) -> str:
    return json.dumps(to_json_dict(h), indent=2) + "\n"


def loads_json(text: str) -> UniformHypergraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    return from_json_dict(payload)


def load_json(path: str) -> UniformHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_json(fh.read())


def save_json(h: UniformHypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(h))
