"""Certified Estrada index brackets and extremal scans over hypertrees.

The Estrada index is the sum of exp(lambda) over all n*(m-1)^(n-1)
adjacency eigenvalues, equivalently the series sum of Tr_d / d!.  Every
eigenvalue modulus is at most the maximum degree, so the truncation
error after order D obeys

    |sum over d > D of Tr_d / d!| <= N * rho^(D+1) / (D+1)! * exp(rho)

with N the eigenvalue count and rho the degree bound.  The bound is
evaluated in exact rational arithmetic using a rational upper estimate
of e, giving a certified enclosure [partial - tail, partial + tail].
Depth grows in steps of m until the enclosure is narrower than the
requested tolerance; successive enclosures are intersected, so
refinement never widens the bracket.  Hosts that are hypertrees only
contribute at orders divisible by m and the series skips the rest.

``extremal_scan`` brackets every isomorphism class of hypertrees with a
given edge count and declares a minimizer or maximizer only when its
bracket is disjoint from every competitor's.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .config import Budget, default_budget
from .errors import ValidationError
from .hypergraph import (
    UniformHypergraph,
    canonical_form,
    enumerate_hypertrees,
    hyperpath,
    hyperstar,
    is_hypertree,
)
from .traces import _check_cost, trace, trace_m2_oracle

# any rational constant strictly above e keeps the tail bound valid
E_UPPER = Fraction(271828182845905, 10**14)


def spectral_radius_bound(h: UniformHypergraph) -> int:
    """Maximum degree: every adjacency eigenvalue modulus is below it."""
    return max(h.degrees) if h.edges else 0


@dataclass(frozen=True)
class EstradaEstimate:
    """A certified enclosure of the Estrada index.

    Invariants: lower <= upper, upper - lower is at most the requested
    tolerance, and the true series value lies inside the enclosure.
    ``traces`` records the exact trace of every order summed.
    """

    lower: Fraction
    upper: Fraction
    depth: int
    tail_bound: Fraction
    traces: dict[int, Fraction] = field(repr=False)

    @property
    def center(self) -> Fraction:
        return (self.lower + self.upper) / 2

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def _tail_bound(count: int, rho: int, depth: int) -> Fraction:
    if rho == 0:
        return Fraction(0)
    return (
        Fraction(count * rho ** (depth + 1), math.factorial(depth + 1))
        * E_UPPER**rho
    )


def _bracket_series(
    h: UniformHypergraph,
    tol: Fraction,
    trace_of: Callable[[int], Fraction],
) -> EstradaEstimate:
    count = h.n * (h.m - 1) ** (h.n - 1)
    rho = spectral_radius_bound(h)
    skip_off_orders = is_hypertree(h)
    m = h.m

    traces: dict[int, Fraction] = {0: Fraction(count)}
    partial = Fraction(count)
    depth = 0
    tail = _tail_bound(count, rho, depth)
    lower, upper = partial - tail, partial + tail
    while upper - lower > tol:
        next_depth = depth + m
        for d in range(depth + 1, next_depth + 1):
            if d < m:
                continue
            if skip_off_orders and d % m:
                continue
            value = trace_of(d)
            traces[d] = value
            partial += value / Fraction(math.factorial(d))
        depth = next_depth
        tail = _tail_bound(count, rho, depth)
        lower = max(lower, partial - tail)
        upper = min(upper, partial + tail)
    return EstradaEstimate(
        lower=lower, upper=upper, depth=depth, tail_bound=tail, traces=traces
    )


def estrada_index(
    h: UniformHypergraph, tol: Fraction, budget: Budget | None = None
) -> EstradaEstimate:
    """Bracket the Estrada index to within tol using exact traces."""
    tol = Fraction(tol)
    if tol < 0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    budget = budget or default_budget()
    return _bracket_series(h, tol, lambda d: trace(h, d, budget))


def estrada_index_m2_oracle(
    h: UniformHypergraph, tol: Fraction, budget: Budget | None = None
) -> EstradaEstimate:
    """Same enclosure for a 2-uniform host, with every trace taken from
    the adjacency matrix-power oracle instead of the rooting engine."""
    tol = Fraction(tol)
    if tol < 0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    budget = budget or default_budget()

    def oracle(d: int) -> Fraction:
        _check_cost(h, d, budget)
        return Fraction(trace_m2_oracle(h, d))

    return _bracket_series(h, tol, oracle)


@dataclass(frozen=True)
class ScanEntry:
    """One hypertree class with its certified Estrada enclosure."""

    canonical_id: str
    hypergraph: UniformHypergraph
    estimate: EstradaEstimate
    rank: int

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.hypergraph.degrees, reverse=True))


@dataclass(frozen=True)
class ExtremalReport:
    """Ranked Estrada enclosures for all hypertree classes of one size.

    A minimizer or maximizer is declared only when its bracket is
    disjoint from every competitor's bracket; overlapping pairs are
    listed with the larger tolerance that would be needed to separate
    them.
    """

    m: int
    z: int
    tol: Fraction
    entries: tuple[ScanEntry, ...]
    minimizer_id: str | None
    maximizer_id: str | None
    path_is_minimum: bool
    star_is_maximum: bool
    indeterminate: tuple[tuple[str, str, Fraction], ...]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "z": self.z,
            "tol": fraction_str(self.tol),
            "minimizer": self.minimizer_id,
            "maximizer": self.maximizer_id,
            "path_is_minimum": self.path_is_minimum,
            "star_is_maximum": self.star_is_maximum,
            "indeterminate": [
                {"a": a, "b": b, "overlap": fraction_str(gap)}
                for a, b, gap in self.indeterminate
            ],
            "classes": [
                {
                    "id": entry.canonical_id,
                    "n": entry.hypergraph.n,
                    "degrees": list(entry.degree_sequence),
                    "lower": fraction_str(entry.estimate.lower),
                    "upper": fraction_str(entry.estimate.upper),
                    "rank": entry.rank,
                }
                for entry in self.entries
            ],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "n", "degrees", "ee_lower", "ee_upper", "rank"])
        for entry in self.entries:
            writer.writerow(
                [
                    entry.canonical_id,
                    entry.hypergraph.n,
                    " ".join(map(str, entry.degree_sequence)),
                    decimal_str(entry.estimate.lower, 8, rounding="floor"),
                    decimal_str(entry.estimate.upper, 8, rounding="ceil"),
                    entry.rank,
                ]
            )
        return out.getvalue()


def class_id(h: UniformHypergraph, budget: Budget | None = None) -> str:
    """Short stable identifier of an isomorphism class."""
    return hashlib.sha256(canonical_form(h, budget)).hexdigest()[:12]


def extremal_scan(
    m: int, z: int, tol: Fraction, budget: Budget | None = None
) -> ExtremalReport:
    """Bracket every m-uniform hypertree class with z edges and rank
    them by Estrada index."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValidationError(f"scan tolerance must be positive, got {tol}")
    budget = budget or default_budget()
    classes = enumerate_hypertrees(m, z, budget)
    estimates = [(class_id(h, budget), h, estrada_index(h, tol, budget)) for h in classes]
    estimates.sort(key=lambda item: (item[2].center, item[0]))
    entries = tuple(
        ScanEntry(canonical_id=cid, hypergraph=h, estimate=est, rank=rank)
        for rank, (cid, h, est) in enumerate(estimates, start=1)
    )

    def disjoint_from_all(candidate: ScanEntry) -> bool:
        return all(
            other is candidate
            or candidate.estimate.upper < other.estimate.lower
            or other.estimate.upper < candidate.estimate.lower
            for other in entries
        )

    low_entry = min(entries, key=lambda e: e.estimate.lower)
    high_entry = max(entries, key=lambda e: e.estimate.upper)
    minimizer = low_entry.canonical_id if disjoint_from_all(low_entry) else None
    maximizer = high_entry.canonical_id if disjoint_from_all(high_entry) else None

    overlaps = []
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            gap = min(a.estimate.upper, b.estimate.upper) - max(
                a.estimate.lower, b.estimate.lower
            )
            if gap >= 0:
                overlaps.append((a.canonical_id, b.canonical_id, gap))

    path_id = class_id(hyperpath(m, z), budget)
    star_id = class_id(hyperstar(m, z), budget)
    return ExtremalReport(
        m=m,
        z=z,
        tol=tol,
        entries=entries,
        minimizer_id=minimizer,
        maximizer_id=maximizer,
        path_is_minimum=minimizer == path_id,
        star_is_maximum=maximizer == star_id,
        indeterminate=tuple(overlaps),
    )


def fraction_str(x: Fraction) -> str:
    """Exact rendering as numerator/denominator."""
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction, places: int, rounding: str = "half-even") -> str:
    """Exact decimal rendering with explicit precision.

    ``floor`` and ``ceil`` keep printed brackets valid: lower endpoints
    round down, upper endpoints round up.
    """
    if places < 0:
        raise ValidationError(f"places must be non-negative, got {places}")
    scaled = x * 10**places
    if rounding == "floor":
        units = scaled.numerator // scaled.denominator
    elif rounding == "ceil":
        units = -((-scaled.numerator) // scaled.denominator)
    elif rounding == "half-even":
        units = round(scaled)
    else:
        raise ValidationError(f"unknown rounding mode {rounding!r}")
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(places)}"
