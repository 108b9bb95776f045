"""Equilibrium taxonomy classification and comparative-statics machinery."""
from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator, NamedTuple

from .params import InvalidParamsError, ModelParams, require_valid
from .thresholds import ThresholdSet, compute_thresholds


class RegionLabel(enum.Enum):
    WAR = "War"
    INEFFICIENT_PEACE = "InefficientPeace"
    EFFICIENT_PEACE = "EfficientPeace"
    BOTH = "Both"
    SKIPPED = "Skipped"


class Margins(NamedTuple):
    efficient: float      # c_D - cbar_D
    cd: float             # c_D - clow_D
    joint: float          # c_D + c_R - Clow

    @classmethod
    def at(cls, params: ModelParams, ts: ThresholdSet) -> "Margins":
        """The margins of a point whose thresholds are ``ts``.

        Costs near the float maximum can overflow a margin even though every
        input is finite; such a point is refused like an invalid one, since a
        label read off an infinite or nan margin means nothing."""
        c_D = params.c_D
        efficient = c_D - ts.cbar_D
        cd = c_D - ts.clow_D
        joint = c_D + params.c_R - ts.Clow
        if not (math.isfinite(efficient) and math.isfinite(cd)
                and math.isfinite(joint)):
            raise InvalidParamsError([
                f"finite margins required, got efficient={efficient}, cd={cd}, "
                f"joint={joint}"])
        return cls(efficient, cd, joint)


class EquilibriumReport(NamedTuple):
    """The taxonomy at one point: the one statement of the existence
    conditions.  Every flag is a pure function of the margins; boundary
    cells (margin 0) take the weak-inequality side."""
    margins: Margins
    thresholds: ThresholdSet

    @property
    def efficient_peace_exists(self) -> bool:
        return self.margins.efficient >= 0.0

    @property
    def inefficient_peace_exists(self) -> bool:
        return self.margins.cd >= 0.0 and self.margins.joint >= 0.0

    @property
    def war_inevitable(self) -> bool:
        return not (self.efficient_peace_exists
                    or self.inefficient_peace_exists)

    @property
    def assumption_holds(self) -> bool:
        """c_D < cbar_D, the restriction the analysis maintains."""
        return not self.efficient_peace_exists

    @property
    def label(self) -> RegionLabel:
        efficient = self.efficient_peace_exists
        inefficient = self.inefficient_peace_exists
        if efficient:
            return RegionLabel.BOTH if inefficient else RegionLabel.EFFICIENT_PEACE
        return RegionLabel.INEFFICIENT_PEACE if inefficient else RegionLabel.WAR


def classify(params: ModelParams) -> EquilibriumReport:
    """Map one parameter point to the equilibrium taxonomy; invalid points
    and points whose margins overflow raise InvalidParamsError."""
    require_valid(params)
    ts = compute_thresholds(params)
    return EquilibriumReport(Margins.at(params, ts), ts)


class RegionGrid(NamedTuple):
    """A (c_R, c_D) raster of ``base``: its cell centers, its ranges and the
    base point's thresholds, which draw the boundary curves.  The cells are
    classified when ``rows`` is read, so a grid holds no per-cell data."""

    base: ModelParams
    cr_values: tuple[float, ...]
    cd_values: tuple[float, ...]
    cr_range: tuple[float, float]
    cd_range: tuple[float, float]
    thresholds: ThresholdSet

    def rows(self) -> Iterator[list[tuple[RegionLabel, Margins]]]:
        """Per c_D, increasing, a list of (label, margins) by increasing c_R.
        Each cell is one classify call on the base with its costs in place; a
        refused cell (e.g. a negative cost) is Skipped with nan margins."""
        i = ModelParams._fields.index("c_R")   # c_D follows c_R
        head, tail, make = self.base[:i], self.base[i + 2:], ModelParams._make
        nan = float("nan")
        skipped = (RegionLabel.SKIPPED, Margins(nan, nan, nan))
        for cd in self.cd_values:
            row = []
            for cr in self.cr_values:
                try:
                    rep = classify(make((*head, cr, cd, *tail)))
                except InvalidParamsError:
                    row.append(skipped)
                    continue
                row.append((rep.label, rep.margins))
            yield row


def _cell_centers(lo: float, hi: float, n: int) -> tuple[float, ...]:
    width = (hi - lo) / n
    return tuple(lo + (i + 0.5) * width for i in range(n))


def region_grid(base: ModelParams, cr_range: tuple[float, float],
                cd_range: tuple[float, float], resolution: int) -> RegionGrid:
    """The raster of ``base`` with ``resolution`` cells per axis.

    An invalid ``base`` raises InvalidParamsError; invalid cells (e.g.
    ranges reaching into negative costs) are Skipped when the rows are read.
    """
    require_valid(base)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    return RegionGrid(
        base=base,
        cr_values=_cell_centers(cr_range[0], cr_range[1], resolution),
        cd_values=_cell_centers(cd_range[0], cd_range[1], resolution),
        cr_range=tuple(cr_range), cd_range=tuple(cd_range),
        thresholds=compute_thresholds(base),
    )


SWEEPABLE_KNOBS = ("mu", "p", "h0", "c_D", "c_R", "rho", "theta")


def comparative_static(base: ModelParams, knob: str,
                       values: Iterable[float]) -> list[EquilibriumReport]:
    """Classify ``base`` at each value of one parameter knob, in order: one
    classify call per value, on the base's fields with that value put in."""
    if knob not in SWEEPABLE_KNOBS:
        raise ValueError(f"unknown knob {knob!r}; expected one of {SWEEPABLE_KNOBS}")
    k = ModelParams._fields.index(knob)
    head, tail = base[:k], base[k + 1:]
    return [classify(ModelParams._make((*head, float(value), *tail)))
            for value in values]


class IntersectionResult(NamedTuple):
    """Where inefficient peace exists but efficient peace does not:
    ``cd_lo <= c_D < cd_hi`` and ``c_D + c_R >= Clow``, so the joint floor
    is ``c_R >= max(Clow - c_D, 0)``.  Each bound is the margin ``classify``
    tests, so the band is exact in float arithmetic too."""
    cd_lo: float   # max(clow_D, 0)
    cd_hi: float   # cbar_D
    Clow: float

    @property
    def found(self) -> bool:
        return self.cd_lo < self.cd_hi


def intersection_nonempty(base: ModelParams) -> IntersectionResult:
    """The inefficient-only band in ``base``'s (c_R, c_D) plane.  An empty
    band (``found`` false) is a candidate counterexample to the paper's
    nonemptiness claim."""
    require_valid(base)
    ts = compute_thresholds(base)
    return IntersectionResult(max(ts.clow_D, 0.0), ts.cbar_D, ts.Clow)
