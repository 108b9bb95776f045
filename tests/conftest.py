from __future__ import annotations

import math
from fractions import Fraction

import pytest

from barriergame.params import ModelParams, sample_valid_params
from barriergame.thresholds import effective_mu

random_valid_params = sample_valid_params


def make(**kw) -> ModelParams:
    """The demo-b point with the fields in kw overridden."""
    base = dict(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6, c_R=1.0, c_D=25.0)
    base.update(kw)
    return ModelParams(**base)


def exact(q: ModelParams) -> ModelParams:
    """q with its numeric fields as the Fractions of their floats, on which
    the closed forms and the oracle compute exactly."""
    return ModelParams(*map(Fraction, q[:9]), q.elimination_mode)


def grid_labels(grid) -> list[list]:
    """A RegionGrid's labels, one list per c_D, read through its rows."""
    return [[label for label, _ in row] for row in grid.rows()]


@pytest.fixture
def set_b() -> ModelParams:
    return make()


def assert_close(a: float, b: float, tol: float = 1e-9) -> None:
    assert math.isfinite(a) and math.isfinite(b), (a, b)
    assert abs(a - b) <= tol, f"{a} vs {b} (diff {a - b})"


def inefficient_joint_threshold_compact(params: ModelParams) -> float:
    """Algebraic twin of ``compute_thresholds(params).Clow`` in product
    form.  Valid at theta = 1 only; an independent transcription
    guard for the closed form."""
    delta, p1, h0 = params.delta, params.p1, params.h0
    m = effective_mu(params)
    return (1.0 - p1) * (1.0 - h0) - delta / (1.0 - delta) * p1 * (1.0 - m)
