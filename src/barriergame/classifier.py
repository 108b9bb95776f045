"""Equilibrium taxonomy classification and comparative-statics machinery."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

from .params import InvalidParamsError, ModelParams, require_valid
from .thresholds import ThresholdSet, compute_thresholds


class RegionLabel(enum.Enum):
    WAR = "War"
    INEFFICIENT_PEACE = "InefficientPeace"
    EFFICIENT_PEACE = "EfficientPeace"
    BOTH = "Both"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class Margins:
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


@dataclass(frozen=True)
class EquilibriumReport:
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

    def to_dict(self) -> dict:
        return {
            "efficient_peace_exists": self.efficient_peace_exists,
            "inefficient_peace_exists": self.inefficient_peace_exists,
            "war_inevitable": self.war_inevitable,
            "assumption_holds": self.assumption_holds,
            "label": self.label.value,
            "margins": {
                "efficient": self.margins.efficient,
                "cd": self.margins.cd,
                "joint": self.margins.joint,
            },
            "thresholds": self.thresholds.to_dict(),
        }


def classify(params: ModelParams) -> EquilibriumReport:
    """Map one parameter point to the equilibrium taxonomy; invalid points
    and points whose margins overflow raise InvalidParamsError."""
    require_valid(params)
    ts = compute_thresholds(params)
    return EquilibriumReport(Margins.at(params, ts), ts)


@dataclass(frozen=True)
class RegionGrid:
    """Rasterized (c_R, c_D) classification with the boundary curves."""

    cr_values: tuple[float, ...]
    cd_values: tuple[float, ...]
    # labels[i][j] corresponds to (cd_values[i], cr_values[j])
    labels: tuple[tuple[RegionLabel, ...], ...]
    margins_efficient: tuple[tuple[float, ...], ...]
    margins_cd: tuple[tuple[float, ...], ...]
    margins_joint: tuple[tuple[float, ...], ...]
    cbar_D: float
    clow_D: float
    Clow: float
    cr_range: tuple[float, float]
    cd_range: tuple[float, float]


def _cell_centers(lo: float, hi: float, n: int) -> tuple[float, ...]:
    width = (hi - lo) / n
    return tuple(lo + (i + 0.5) * width for i in range(n))


def region_grid(base: ModelParams, cr_range: tuple[float, float],
                cd_range: tuple[float, float], resolution: int) -> RegionGrid:
    """Classify every cell center of a (c_R, c_D) raster.

    An invalid ``base`` raises InvalidParamsError; invalid cells (e.g.
    ranges reaching into negative costs) are Skipped.  Cell evaluation is
    pure and independent, so callers may shard it freely.
    """
    require_valid(base)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    crs = _cell_centers(cr_range[0], cr_range[1], resolution)
    cds = _cell_centers(cd_range[0], cd_range[1], resolution)
    ts = compute_thresholds(base)
    nan = float("nan")
    skipped = (RegionLabel.SKIPPED, nan, nan, nan)
    # one (label, efficient, cd, joint) tuple per cell, transposed per row
    rows: list[tuple[tuple, ...]] = []
    for cd in cds:
        row = []
        for cr in crs:
            # one classify call per cell, Skipped cells included
            try:
                rep = classify(base.with_overrides(c_D=cd, c_R=cr))
            except InvalidParamsError:
                row.append(skipped)
                continue
            m = rep.margins
            row.append((rep.label, m.efficient, m.cd, m.joint))
        rows.append(tuple(zip(*row)))
    labels, m_eff, m_cd, m_joint = zip(*rows)
    return RegionGrid(
        cr_values=crs, cd_values=cds, labels=labels,
        margins_efficient=m_eff, margins_cd=m_cd, margins_joint=m_joint,
        cbar_D=ts.cbar_D, clow_D=ts.clow_D, Clow=ts.Clow,
        cr_range=tuple(cr_range), cd_range=tuple(cd_range),
    )


SWEEPABLE_KNOBS = ("mu", "p", "h0", "c_D", "c_R", "rho", "theta")


def comparative_static(base: ModelParams, knob: str,
                       values: Iterable[float]) -> list[EquilibriumReport]:
    """Classify ``base`` at each value of one parameter knob, in order."""
    if knob not in SWEEPABLE_KNOBS:
        raise ValueError(f"unknown knob {knob!r}; expected one of {SWEEPABLE_KNOBS}")
    return [classify(base.with_overrides(**{knob: float(value)}))
            for value in values]


@dataclass(frozen=True)
class IntersectionResult:
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

    def to_dict(self) -> dict:
        return {"found": self.found, "cd_lo": self.cd_lo, "cd_hi": self.cd_hi,
                "Clow": self.Clow}


def intersection_nonempty(base: ModelParams) -> IntersectionResult:
    """The inefficient-only band in ``base``'s (c_R, c_D) plane.  An empty
    band (``found`` false) is a candidate counterexample to the paper's
    nonemptiness claim."""
    require_valid(base)
    ts = compute_thresholds(base)
    return IntersectionResult(max(ts.clow_D, 0.0), ts.cbar_D, ts.Clow)
