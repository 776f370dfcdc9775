"""Shared evaluation policy.

EvalContext carries every tunable the numerics depend on, so results are
reproducible from (inputs, context) alone.  Instances are frozen; make a
modified copy with dataclasses.replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ContextError


@dataclass(frozen=True)
class EvalContext:
    """Evaluation policy knobs.

    em_cutoff        floor for the Euler-Maclaurin direct-sum length
    em_scale         direct-sum terms per unit of |Im s|, sized per point
                     (specfun.series_terms rounds the excess over
                     em_cutoff up to a multiple of 32)
    em_bernoulli     number of Bernoulli correction terms (B_2 .. B_{2n})
    exclusion_radius half-width of the discs carved out around psi poles
    sigma_right_base right abscissa for argument tracking at k = 0
    sigma_right_step increment of that abscissa per derivative order
    refine_tol       zero refinement stops when the bracket is this narrow
    scan_safety      fraction of the mean zero gap used as the scan step

    Every float field must be finite.
    """

    em_cutoff: int = 20
    em_scale: float = 1.0
    em_bernoulli: int = 12
    exclusion_radius: float = 0.1
    sigma_right_base: float = 6.0
    sigma_right_step: float = 2.0
    refine_tol: float = 1e-9
    scan_safety: float = 0.25

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContextError(f"{f.name} must be finite, got {value}")
        if self.em_cutoff < 10:
            raise ContextError("em_cutoff must be at least 10")
        if self.em_scale < 1.0:
            raise ContextError("em_scale below 1 breaks Euler-Maclaurin accuracy")
        if not (1 <= self.em_bernoulli <= 15):
            raise ContextError("em_bernoulli must lie in 1..15 (table ends at B_30)")
        if not (0 < self.exclusion_radius < 0.5):
            raise ContextError("exclusion_radius must lie in (0, 0.5)")
        if self.sigma_right_base < 2.0 or self.sigma_right_step < 0:
            raise ContextError("sigma_right policy must keep the tracking line right of sigma = 2")
        # near t = 500 a double is 1.1e-13 from its neighbours; a narrower
        # tolerance cannot be reached there and refinement would never end
        if not (1e-12 <= self.refine_tol <= 1e-6):
            raise ContextError("refine_tol must lie in [1e-12, 1e-6]")
        if not (0 < self.scan_safety <= 0.5):
            raise ContextError("scan_safety must lie in (0, 0.5]")

    def em_terms(self, im_max: float) -> int:
        """Direct-sum length for a point with |Im s| = im_max, before the
        rounding up to a tier in specfun.series_terms."""
        return max(self.em_cutoff, int(math.ceil(self.em_scale * abs(im_max))))

    def sigma_right(self, k: int) -> float:
        """Right abscissa used when tracking arg of the order-k chain value."""
        return self.sigma_right_base + self.sigma_right_step * k

    def with_overrides(self, **kw) -> "EvalContext":
        names = {f.name for f in fields(self)}
        bad = set(kw) - names
        if bad:
            raise ContextError(f"unknown context fields: {sorted(bad)}")
        return replace(self, **kw)


DEFAULT_CONTEXT = EvalContext()
