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
the glued ambient n1 + n2 - 1.  A profile is read from the host's
block-cut forest rooted at the anchor (``traces._profile``); its
forests share their block tables, so K4's profiles at two anchors
enumerate K4 once per order.

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
versus the onset the law claims.  The two hypergraphs share one store
of block tables (``traces._share_blocks``), so a block they have in
common, such as the host the paths are glued to, is enumerated once
per order for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .config import Budget
from .errors import MissingProfileEntry, MixedUniformity, ValidationError
from .estrada import fraction_str
from .hypergraph import (
    AttachSpec,
    UniformHypergraph,
    _check_vertex,
    attach,
    coalesce,
    hyperpath,
    new_hypergraph,
)
# enumerate_rootings and contribution_parts are not called here (profiles
# are read from the block forest), but bound so that perfbench's span
# wrappers find them; perfbench/selftest.py checks
from .euler import _check_order, contribution_parts, enumerate_rootings  # noqa: F401
from .traces import _check, _order_zero_local, _profile, _share_blocks, trace


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
        if (any(not isinstance(x, int) or isinstance(x, bool) for x in (d, t))
                or d < 0 or t < 0 or t > d):
            raise ValidationError(f"profile entry ({d!r}, {t!r}) is malformed")
        if d > self.d_max:
            raise MissingProfileEntry(
                f"profile of vertex {self.anchor} stops at order {self.d_max}, "
                f"order {d} was requested"
            )
        return self.entries.get((d, t), Fraction(0))


def local_trace_profile(
    h: UniformHypergraph,
    anchor: int,
    d_max: int,
    budget: Budget | None = None,
) -> LocalTraceProfile:
    """Compute all pinned localized traces at the anchor up to d_max."""
    _check_vertex(h, anchor, "anchor")
    _check(h, d_max, budget)
    entries = _profile(h, anchor, d_max)
    entries[(0, 0)] = _order_zero_local(h)
    return LocalTraceProfile(host=h, anchor=anchor, d_max=d_max, entries=entries)


def coalescence_local_trace(
    p1: LocalTraceProfile, p2: LocalTraceProfile, d: int
) -> Fraction:
    """Localized trace of the glued hypergraph at the identified vertex,
    assembled from the two operand profiles."""
    _check_profiles("composition", d, 0, p1, p2)
    e1, e2 = p1.entries, p2.entries
    one_sided = sum(
        (e1[0, 0] * e2.get((d, t), 0) + e2[0, 0] * e1.get((d, t), 0) for t in range(1, d + 1)),
        Fraction(0),
    )
    return one_sided + _mixed_cross_sum(p1, p2, d)


def _check_profiles(what: str, d: int, short: int, *profiles: LocalTraceProfile) -> None:
    """Reject an order d that is not an ``int`` >= 1, profiles of
    different uniformity, and a profile that stops below order d - short."""
    _check_order(d, 1)
    if len({p.host.m for p in profiles}) > 1:
        raise MixedUniformity("profiles have different uniformity")
    if any(p.d_max < d - short for p in profiles):
        raise MissingProfileEntry(f"{what} at order {d} needs profiles to depth {d - short}")


def _mixed_cross_sum(
    p1: LocalTraceProfile, p2: LocalTraceProfile, d: int
) -> Fraction:
    """Sum of weights of rootings spanning both sides of the glue.  The
    callers have checked both profiles reach order d - 1, so entries are
    read directly: absent ones are zero.  The inner sum over t1 runs on
    the numerators of p1's entries at order d1 over their common
    denominator."""
    e1, e2 = p1.entries, p2.entries
    total = Fraction(0)
    for d1 in range(1, d):
        d2 = d - d1
        side1 = [(t1, v1) for t1 in range(1, d1 + 1) if (v1 := e1.get((d1, t1)))]
        den = lcm(*(v1.denominator for _, v1 in side1))
        side1 = [(t1, v1.numerator * (den // v1.denominator)) for t1, v1 in side1]
        for t2 in range(1, d2 + 1):
            v2 = e2.get((d2, t2))
            if v2 and side1:
                inner = sum(comb(t1 + t2 - 1, t2) * n1 for t1, n1 in side1)
                total += Fraction(d * t2 * v2.numerator * inner, d1 * d2 * v2.denominator * den)
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
    _check_profiles("relocation", d, 1, profile_u, profile_v, profile_w)
    if profile_u.host != profile_v.host:
        raise ValidationError("profile_u and profile_v must anchor the same operand")
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
    _check_order(d_max, 1)
    _share_blocks((larger, smaller))
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
    of the vertices first..first+p-1, for an ``int`` p in 1..m-first;
    single edges by default."""
    if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= m - first:
        raise ValidationError(f"branch count p must be an integer in 1..{m - first}, got {p!r}")
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
    _check_vertex(h, w)
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
