"""Trace composition across cut vertices and monotonicity audits.

When two hypergraphs are glued at a single vertex, every Euler rooting
of the whole splits into Eulerian restrictions on the two sides, and the
localized trace at the cut vertex factors through per-side profiles:

    Tr_d(H1 (.) H2; [u]) =
        sum over d1 + d2 = d, t1 <= d1, t2 <= d2, t1 + t2 > 0 of
        d / (t1 + t2) * C(t1 + t2, t1)
        * (t1 / d1) * Tr_{d1;t1}(H1; [u])
        * (t2 / d2) * Tr_{d2;t2}(H2; [u])

with the conventions t/d := 1 when t = d = 0 and the order-zero profile
entry (m-1)^(n-1).  A :class:`LocalTraceProfile` stores the pinned
localized traces Tr_{d;t} of one operand at its anchor vertex, in the
operand's own ambient vertex count; the formula is self-normalizing for
the glued ambient n1 + n2 - 1.  A profile groups the host's rooting
table (``traces._rooting_table``) by the anchor's root count, so the
profiles of one operand at two anchors enumerate it once per order.

For d1, d2 > 0 the coefficient simplifies, since
C(t1 + t2, t1) * t1 / (t1 + t2) = C(t1 + t2 - 1, t2):

    d / (t1 + t2) * C(t1 + t2, t1) * (t1 / d1) * (t2 / d2)
        = d * t2 / (d1 * d2) * C(t1 + t2 - 1, t2).

The terms with d1 = 0 or d2 = 0 are one-sided: they reduce to the
order-zero entry of one side times Tr_d of the other at u.  The mixed
terms, from rootings that use both sides, are

    sum over d1 + d2 = d, d1, d2 > 0, t2 > 0 of
    d * t2 / (d1 * d2) * Tr_{d2;t2}(H2; [w])
    * sum over t1 > 0 of C(t1 + t2 - 1, t2) * Tr_{d1;t1}(H1; [u or v]).

``coalescence_local_trace`` is the two one-sided terms plus this sum.
``relocation_difference`` compares moving an attachment from vertex u to
vertex v of the same operand: the rootings supported wholly inside one
side cancel in the difference, leaving only the mixed terms.

The audit functions build the two hypergraphs named by a perturbation
law, compare their exact traces order by order, and report equality,
strictness or violations together with the first strict order observed
versus the onset the law claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .config import Budget, default_budget
from .errors import (
    MissingProfileEntry,
    MixedUniformity,
    ValidationError,
    VertexOutOfRange,
)
from .estrada import fraction_str
from .hypergraph import (
    AttachSpec,
    UniformHypergraph,
    attach,
    coalesce,
    hyperpath,
    new_hypergraph,
)
# not called here (profiles fold the host's rooting table), but bound so
# that perfbench's span wrappers find them; perfbench/selftest.py checks
from .euler import contribution_parts, enumerate_rootings  # noqa: F401
from .traces import _check_cost, _check_order, _order_zero_local, _rooting_table, trace


@dataclass(frozen=True)
class LocalTraceProfile:
    """Pinned localized traces of one operand at an anchor vertex.

    ``entries[(d, t)]`` is Tr_{d;t}(host; [anchor]) for 1 <= t <= d <=
    d_max, stored only when non-zero; the conventional order-zero entry
    (m-1)^(n-1) is present under (0, 0).  Values use the host's own
    ambient vertex count.
    """

    host: UniformHypergraph
    anchor: int
    d_max: int
    entries: dict[tuple[int, int], Fraction] = field(repr=False)

    def value(self, d: int, t: int) -> Fraction:
        if d < 0 or t < 0 or t > d:
            raise ValidationError(f"profile entry ({d}, {t}) is malformed")
        if d > self.d_max:
            raise MissingProfileEntry(
                f"profile of vertex {self.anchor} stops at order {self.d_max}, "
                f"order {d} was requested"
            )
        if d == 0:
            return self.entries[(0, 0)]
        return self.entries.get((d, t), Fraction(0))


def local_trace_profile(
    h: UniformHypergraph,
    anchor: int,
    d_max: int,
    budget: Budget | None = None,
) -> LocalTraceProfile:
    """Compute all pinned localized traces at the anchor up to d_max."""
    if not isinstance(anchor, int) or isinstance(anchor, bool):
        raise ValidationError(f"anchor {anchor!r} is not an integer")
    if not 0 <= anchor < h.n:
        raise VertexOutOfRange(f"anchor {anchor} is not in 0..{h.n - 1}")
    _check_order(d_max)
    _check_cost(h, d_max, budget or default_budget())
    entries: dict[tuple[int, int], Fraction] = {}
    for d in range(1, d_max + 1):
        sums: dict[int, int] = {}
        for roots, num in _rooting_table(h, d).items():
            t = roots[anchor]
            if t:
                sums[t] = sums.get(t, 0) + num
        entries.update({(d, t): Fraction(num, factorial(d)) for t, num in sums.items()})
    entries[(0, 0)] = _order_zero_local(h)
    return LocalTraceProfile(host=h, anchor=anchor, d_max=d_max, entries=entries)


def embed_scale(value: Fraction, m: int, ambient_n: int, sub_n: int) -> Fraction:
    """Rescale a trace computed on sub_n vertices to an ambient host:
    every extra vertex multiplies the weight by (m-1)."""
    if ambient_n < sub_n:
        raise ValidationError(
            f"ambient vertex count {ambient_n} is below the operand's {sub_n}"
        )
    return value * Fraction((m - 1) ** (ambient_n - sub_n))


def coalescence_local_trace(
    p1: LocalTraceProfile, p2: LocalTraceProfile, d: int
) -> Fraction:
    """Localized trace of the glued hypergraph at the identified vertex,
    assembled from the two operand profiles."""
    if p1.host.m != p2.host.m:
        raise MixedUniformity("profiles have different uniformity")
    if d < 1:
        raise ValidationError(f"composition needs d >= 1, got {d}")
    if p1.d_max < d or p2.d_max < d:
        raise MissingProfileEntry(
            f"composition at order {d} needs both profiles computed to that depth"
        )
    one_sided = sum(
        (p1.value(0, 0) * p2.value(d, t) + p2.value(0, 0) * p1.value(d, t)
         for t in range(1, d + 1)),
        Fraction(0),
    )
    return one_sided + _mixed_cross_sum(p1, p2, d)


def _mixed_cross_sum(
    p1: LocalTraceProfile, p2: LocalTraceProfile, d: int
) -> Fraction:
    """Sum of weights of rootings spanning both sides of the glue."""
    total = Fraction(0)
    for d1 in range(1, d):
        d2 = d - d1
        for t2 in range(1, d2 + 1):
            v2 = p2.value(d2, t2)
            if not v2:
                continue
            inner = Fraction(0)
            for t1 in range(1, d1 + 1):
                v1 = p1.value(d1, t1)
                if v1:
                    inner += comb(t1 + t2 - 1, t2) * v1
            if inner:
                total += Fraction(d * t2, d1 * d2) * v2 * inner
    return total


def relocation_difference(
    profile_u: LocalTraceProfile,
    profile_v: LocalTraceProfile,
    profile_w: LocalTraceProfile,
    d: int,
) -> Fraction:
    """Exact value of Tr_d(H1(u) (.) H2(w)) - Tr_d(H1(v) (.) H2(w)).

    profile_u and profile_v anchor the same operand at the two candidate
    attachment vertices; profile_w anchors the relocated operand.
    """
    if d < 1:
        raise ValidationError(f"relocation needs d >= 1, got {d}")
    if len({p.host.m for p in (profile_u, profile_v, profile_w)}) > 1:
        raise MixedUniformity("profiles have different uniformity")
    if profile_u.host != profile_v.host:
        raise ValidationError("profile_u and profile_v must anchor the same operand")
    needed = d - 1
    for p in (profile_u, profile_v, profile_w):
        if p.d_max < needed:
            raise MissingProfileEntry(
                f"relocation at order {d} needs profiles to depth {needed}"
            )
    return _mixed_cross_sum(profile_u, profile_w, d) - _mixed_cross_sum(
        profile_v, profile_w, d
    )


# --- inequality audits ----------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    d: int
    left: Fraction
    right: Fraction

    @property
    def verdict(self) -> str:
        if self.left == self.right:
            return "equal"
        return "strict" if self.left > self.right else "violates"


@dataclass(frozen=True)
class InequalityAuditReport:
    """Order-by-order comparison of two traces under a perturbation law.

    ``left`` holds the trace the law predicts to be the larger one.
    ``claimed_strict_onset`` is the order from which the law claims
    strict inequality; ``observed_strict_onset`` is the first strict
    order actually seen (None when every order compared equal).
    """

    law: str
    params: dict
    rows: tuple[AuditRow, ...]
    claimed_strict_onset: int

    @property
    def observed_strict_onset(self) -> int | None:
        for row in self.rows:
            if row.verdict == "strict":
                return row.d
        return None

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(row.d for row in self.rows if row.verdict == "violates")

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "law": self.law,
            "params": self.params,
            "claimed_strict_onset": self.claimed_strict_onset,
            "observed_strict_onset": self.observed_strict_onset,
            "violations": list(self.violations),
            "rows": [
                {
                    "d": row.d,
                    "left": fraction_str(row.left),
                    "right": fraction_str(row.right),
                    "verdict": row.verdict,
                }
                for row in self.rows
            ],
        }


def _compare_traces(
    law: str,
    params: dict,
    larger: UniformHypergraph,
    smaller: UniformHypergraph,
    d_max: int,
    claimed_strict_onset: int,
    budget: Budget | None,
) -> InequalityAuditReport:
    _check_order(d_max)
    if d_max < 1:
        raise ValidationError(f"d_max must be >= 1, got {d_max}")
    rows = []
    for d in range(1, d_max + 1):
        rows.append(
            AuditRow(d=d, left=trace(larger, d, budget), right=trace(smaller, d, budget))
        )
    return InequalityAuditReport(
        law=law,
        params=params,
        rows=tuple(rows),
        claimed_strict_onset=claimed_strict_onset,
    )


def _pendant_paths(
    h: UniformHypergraph, u: int, a: int, v: int, b: int
) -> UniformHypergraph:
    """h with a hyperpath of a edges glued at u and one of b edges at v,
    each by its far end z * (m - 1) (any degree-one vertex of the last
    edge is equivalent up to isomorphism); a length of 0 glues nothing."""
    return attach(h, [AttachSpec(w, hyperpath(h.m, z), z * (h.m - 1))
                      for w, z in ((u, a), (v, b)) if z])


def _branched_edge(
    m: int, first: int, p: int, branches: Sequence[UniformHypergraph] | None
) -> UniformHypergraph:
    """The edge {0, .., m-1} with a branch glued by its vertex 0 at each
    of the vertices first..first+p-1; single edges by default."""
    if branches is None:
        branches = [hyperpath(m, 1)] * p
    if len(branches) != p:
        raise ValidationError(f"expected {p} branches, got {len(branches)}")
    base = new_hypergraph(m, m, [tuple(range(m))])
    return attach(base, [AttachSpec(first + i, br, 0) for i, br in enumerate(branches)])


def audit_path_shift(
    h: UniformHypergraph,
    w: int,
    r: int,
    s: int,
    d_max: int,
    budget: Budget | None = None,
) -> InequalityAuditReport:
    """Two pendant paths at one vertex: lengths (r, s) versus (r+1, s-1).

    With r >= s >= 1 the balanced split should dominate order by order;
    the law claims strictness from d = s * m on.
    """
    if not (r >= s >= 1):
        raise ValidationError(f"path shift needs r >= s >= 1, got r={r}, s={s}")
    if not 0 <= w < h.n:
        raise VertexOutOfRange(f"vertex {w} is not in 0..{h.n - 1}")
    return _compare_traces(
        law="path-shift",
        params={"m": h.m, "host_n": h.n, "host_edges": h.edge_count, "w": w,
                "r": r, "s": s, "d_max": d_max},
        larger=_pendant_paths(h, w, r, w, s),
        smaller=_pendant_paths(h, w, r + 1, w, s - 1),
        d_max=d_max,
        claimed_strict_onset=s * h.m,
        budget=budget,
    )


def audit_edge_shift(
    m: int,
    p: int,
    r: int,
    s: int,
    d_max: int,
    branches: Sequence[UniformHypergraph] | None = None,
    budget: Budget | None = None,
) -> InequalityAuditReport:
    """Pendant paths at two vertices of one edge carrying p branches.

    The base edge {0, .., m-1} gets a branch at each of the vertices
    2..p+1, a pendant path of length r at vertex 0 and one of length s
    at vertex 1; the comparison is against lengths (r+1, s-1).  The law
    claims strictness from d = (s+1) * m on.
    """
    if m < 3:
        raise ValidationError(f"edge shift needs m >= 3, got {m}")
    if not 1 <= p <= m - 2:
        raise ValidationError(f"edge shift needs 1 <= p <= m-2, got p={p}")
    if not (r >= s >= 1):
        raise ValidationError(f"edge shift needs r >= s >= 1, got r={r}, s={s}")
    host = _branched_edge(m, 2, p, branches)
    return _compare_traces(
        law="edge-shift",
        params={"m": m, "p": p, "r": r, "s": s, "d_max": d_max},
        larger=_pendant_paths(host, 0, r, 1, s),
        smaller=_pendant_paths(host, 0, r + 1, 1, s - 1),
        d_max=d_max,
        claimed_strict_onset=(s + 1) * m,
        budget=budget,
    )


def audit_cored_shift(
    m: int,
    d_max: int,
    p: int = 1,
    branches: Sequence[UniformHypergraph] | None = None,
    other: UniformHypergraph | None = None,
    other_vertex: int = 0,
    budget: Budget | None = None,
) -> InequalityAuditReport:
    """Attachment at a branch vertex versus at a degree-one vertex.

    The host is the edge {0, .., m-1} with a branch at each of the
    vertices 1..p, so vertex 0 keeps degree one.  Gluing the other
    operand at vertex 1 should dominate gluing it at vertex 0; the law
    claims strictness at every order divisible by m.
    """
    if m < 2:
        raise ValidationError(f"uniformity m must be >= 2, got {m}")
    if not 1 <= p <= m - 1:
        raise ValidationError(f"cored shift needs 1 <= p <= m-1, got p={p}")
    host = _branched_edge(m, 1, p, branches)
    if other is None:
        other = hyperpath(m, 1)
    return _compare_traces(
        law="cored-shift",
        params={"m": m, "p": p, "d_max": d_max,
                "other_n": other.n, "other_edges": other.edge_count},
        larger=coalesce(host, 1, other, other_vertex),
        smaller=coalesce(host, 0, other, other_vertex),
        d_max=d_max,
        claimed_strict_onset=m,
        budget=budget,
    )
