"""Scan policy.

EvalContext carries the two settings of the zero scan: its grid step and
its refinement tolerance.  Only the functions that scan take it
(zerolab.scan_zeros, interlace_audit, count_compare, mirror_sum_check), so
a zero table is reproducible from (inputs, context) alone; every value of
F, F_k and Z^(k) is a function of (datum, point) alone.  Instances are
frozen and hashable; make a modified copy with with_overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ContextError


@dataclass(frozen=True)
class EvalContext:
    """Scan policy knobs.

    refine_tol   zero refinement stops when the bracket is this narrow
    scan_safety  fraction of the mean zero gap used as the scan step

    Every field must be finite.  The Euler-Maclaurin series lengths
    (specfun.series_terms, sized per point by the remainder bound) and the
    psi exclusion radius (gamma_factor._EXCLUSION_RADIUS) are not settings.
    """

    refine_tol: float = 1e-9
    scan_safety: float = 0.25

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContextError(f"{f.name} must be finite, got {value}")
        # near t = 500 a double is 1.1e-13 from its neighbours; a narrower
        # tolerance cannot be reached there and refinement would never end
        if not (1e-12 <= self.refine_tol <= 1e-6):
            raise ContextError("refine_tol must lie in [1e-12, 1e-6]")
        # the scan step is scan_safety times the mean zero gap: at 1e-16 it is
        # 3e-16 near t = 10, where t + step == t and the scan never advances,
        # and at 1e-6 zeta on [5, 500] takes 2.7e8 grid points; 1e-3 keeps
        # that to 2.7e5
        if not (1e-3 <= self.scan_safety <= 0.5):
            raise ContextError("scan_safety must lie in [1e-3, 0.5]")

    def with_overrides(self, **kw) -> "EvalContext":
        names = {f.name for f in fields(self)}
        bad = set(kw) - names
        if bad:
            raise ContextError(f"unknown context fields: {sorted(bad)}")
        return replace(self, **kw)


DEFAULT_CONTEXT = EvalContext()
