"""Automorphism groups of a host, for the enumerator to reduce by.

An automorphism is a permutation of 0..n-1, given as the tuple of the
images of the vertices in order, that maps every edge of the host onto
an edge.  A group of them is given by generators and never listed.

* ``_Orbits`` closes the orbit of a root-count vector one generator
  step at a time, once per vector met, and tells whether it is the
  lexicographically least of its orbit.
* ``_Group`` keeps, with the generators the labeling search found, the
  orbit of each j under those fixing 0..j-1, a subset of the group's
  basic orbit for the base 0, 1, ..., n-1, and a pool of the
  generators, each with its action on the host's edges.  No stabilizer
  chain is built.
* ``_root_vectors`` lists the candidate least root-count vectors of an
  order.  Besides summing to d, with ``r(v) <= d // m`` (the load at v
  is at most the sum of all k) and 0 on a vertex of no edge, every
  least vector with rootings meets two bounds:

  - ``sum of r(u) over the neighbours u of v >= (m - 1) * r(v)``: each
    ``k_e`` at v adds ``k_e`` to each of the m - 1 other vertices of e;
  - ``r(j) <= r(u)`` for u in the basic orbit of j, here the orbit of
    j under the generators fixing 0..j-1: such a g sending j to u
    gives ``g.r`` equal to r before j and ``r(u)`` at j.  The bound
    holds for every u in the group's basic orbit, so also for a subset
    of it; a smaller orbit only leaves more candidates.

* ``_Orbits.least_k_vectors`` keeps, of the k-vectors with the root
  counts r, the least of each orbit under the generators that fix r,
  closed by ``_orbit``, and records each one's orbit size (``euler``'s
  docstring).  They generate a subgroup of the stabilizer of r, which
  keeps a table exact whichever subgroup it is.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

from .hypergraph import UniformHypergraph


def _orbit(r: tuple[int, ...], generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The orbit of a vector under the group that the permutations of its
    indices generate, closed one generator step at a time."""
    # itemgetter builds an image with no transient map or bound method, which cost
    # ~0.5 MB of peak memory on dense hosts; a one-index permutation is the identity
    moves = [itemgetter(*g) for g in generators if len(g) > 1]
    orbit = {r}
    todo = [r]
    while todo:
        x = todo.pop()
        for move in moves:
            y = move(x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


class _Group(list):
    """Generators of a group of automorphisms of a host, as a list, and
    what the enumerator reads of them, computed on first use and kept
    with the list: the ``base_orbits`` (entry j is the orbit of j under
    the generators fixing 0..j-1) and the ``pool``, each generator once
    with its action on the host's edges (``edge_map[i]`` is the index of
    the image of edge i)."""

    def __init__(self, h: UniformHypergraph, generators: Iterable[tuple[int, ...]]) -> None:
        super().__init__(generators)
        self.n, self.edges = h.n, h.edges

    @cached_property
    def base_orbits(self) -> tuple[tuple[int, ...], ...]:
        orbits = []
        for j in range(self.n):
            fixing = [g for g in self if all(g[i] == i for i in range(j))]
            unit = tuple(int(v == j) for v in range(self.n))
            orbits.append(tuple(sorted(x.index(1) for x in _orbit(unit, fixing))))
        return tuple(orbits)

    @cached_property
    def pool(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        index = {e: i for i, e in enumerate(self.edges)}
        return [(g, tuple(index[tuple(sorted(map(g.__getitem__, e)))] for e in self.edges))
                for g in dict.fromkeys(self)]


class _Orbits:
    """The orbits of root-count vectors under a :class:`_Group`, closed
    so far, each closed once: ``least`` tells of every vector met
    whether it is the least of its orbit, and ``of`` maps each least
    vector met to its orbit.  ``sizes`` maps each k-vector kept by
    ``least_k_vectors`` to the size of its orbit where that is above 1.
    A caller that passes one to ``euler.enumerate_rootings`` reads the
    orbits and sizes of what it yielded afterwards."""

    def __init__(self, group: _Group) -> None:
        self.group = group
        self.least: dict[tuple[int, ...], bool] = {}
        self.of: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        self.sizes: dict[tuple[int, ...], int] = {}

    def is_least(self, r: tuple[int, ...]) -> bool:
        if r not in self.least:
            orbit = _orbit(r, self.group)
            self.least.update(dict.fromkeys(orbit, False))
            first = min(orbit)
            self.least[first] = True
            self.of[first] = orbit
        return self.least[r]

    def least_k_vectors(self, found: list, r: tuple[int, ...]) -> list:
        """Of the (k-vector, load) pairs ``found`` at the root counts r,
        every one with those root counts in lexicographic order, the
        first, so the least, of each orbit under the generators fixing r."""
        # _orbit reads x[edge_map[i]] at i, the inverse of the edge action;
        # the inverses of a finite group's generators generate it too
        fixing = [edge_map for g, edge_map in self.group.pool
                  if all(r[w] == x for w, x in zip(g, r))]
        if len(found) < 2 or not fixing:
            return found
        seen: set[tuple[int, ...]] = set()
        kept = []
        for k, load in found:
            if k not in seen:
                orbit = _orbit(k, fixing)
                seen |= orbit
                kept.append((k, load))
                if len(orbit) > 1:
                    self.sizes[k] = len(orbit)
        return kept


def _root_vectors(
    h: UniformHypergraph, d: int, base_orbits: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, ...]]:
    """In lexicographic order, root-count vectors r over 0..n-1 meeting
    the bounds every least vector of an orbit with rootings of order d
    meets (the module docstring): r sums to d, r(v) <= d // m and 0 on
    a vertex of no edge, the neighbours of v hold at least (m - 1) *
    r(v) roots, and r(j) <= r(u) for u in the basic orbit of j."""
    n, m = h.n, h.m
    highs = [d // m if degree else 0 for degree in h.degrees]
    # room[v]: the most roots the vertices after v can hold
    room = [0] * n
    for v in range(n - 1, 0, -1):
        room[v - 1] = room[v] + highs[v]
    above = [[j for j in range(u) if u in base_orbits[j]] for u in range(n)]
    neighbours = [sorted({u for i in h.incidence[v] for u in h.edges[i]} - {v}) for v in range(n)]
    checks: list[list[int]] = [[] for _ in range(n)]  # vertices whose neighbours are all set at v
    for v in range(n):
        checks[max([v, *neighbours[v]])].append(v)
    r = [0] * n

    def assign(v: int, remaining: int) -> Iterator[tuple[int, ...]]:
        low = max(0, remaining - room[v], *map(r.__getitem__, above[v]))
        for x in range(low, min(highs[v], remaining) + 1):
            r[v] = x
            for w in checks[v]:
                if sum(map(r.__getitem__, neighbours[w])) < (m - 1) * r[w]:
                    break
            else:
                if v == n - 1:
                    yield tuple(r)
                else:
                    yield from assign(v + 1, remaining - x)
        r[v] = 0

    yield from assign(0, d)
