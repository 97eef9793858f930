"""Resource budgets shared by the enumeration engines.

Every potentially explosive routine takes an optional :class:`Budget`
and refuses up front, with :class:`~hypertrace.errors.LimitExceeded`,
any request whose cost bound exceeds the configured limit.  The
environment variable ``HYPERTRACE_BUDGET`` overrides the default trace
cost limit for command-line runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ValidationError, _check_int

ENV_BUDGET = "HYPERTRACE_BUDGET"


@dataclass(frozen=True)
class Budget:
    """Limits for one engine invocation.

    cost_limit bounds ``edge_count * d`` for a single trace evaluation,
    arc_limit bounds the exhaustive Euler-circuit oracle, and the two
    remaining fields bound hypertree enumeration and canonical labeling.
    Every field must be an ``int`` (not a ``bool``) of at least 1.
    """

    cost_limit: int = 128
    arc_limit: int = 16
    tree_edge_limit: int = 6
    canon_vertex_limit: int = 26

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_int(f"budget {f.name}", getattr(self, f.name), 1)


def default_budget() -> Budget:
    """Budget with defaults, honoring the ``HYPERTRACE_BUDGET`` override."""
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return Budget()
    try:
        return Budget(cost_limit=int(raw))
    except ValueError:  # ValidationError included
        raise ValidationError(f"{ENV_BUDGET} must be a positive integer, got {raw!r}") from None
