"""The exact reference: the closed forms and the oracle evaluate on
``fractions.Fraction`` parameters, where every threshold is a rational
number computed without rounding.

Criterion 12 holds the two to each other with no tolerance; the enclosure
tests hold every float bracket of the oracle to the exact value, the
closed-form tests every float field of ``compute_thresholds`` to its exact
value within a stated bound, and the verdict test every float verdict to
the exact one.
"""
import math

import numpy as np
import pytest

from barriergame.oracle import (oracle_thresholds, postwar_market_mean,
                               verify_period1)
from barriergame.thresholds import compute_thresholds
from conftest import exact, make, random_valid_params
from test_acceptance import (CLOSED_FORM_BOUND_1, CLOSED_FORM_BOUND_11,
                             _report)
from test_oracle import BUILT_IN_MODES, playable

NAMES = ("cbar_D", "clow_D", "Clow")


def criterion_1_points():
    rng = np.random.default_rng(20240817)
    return [random_valid_params(rng) for _ in range(1000)]


def criterion_11_points():
    rng = np.random.default_rng(20240820)
    return [random_valid_params(rng).with_overrides(
                delta=1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.05)))
            for _ in range(1000)]


def test_criterion_12_exact_oracle_equals_closed_forms():
    # criterion 1's points, and the endpoints where the closed-form mean
    # is returned rather than computed
    points = criterion_1_points() + [make(rho=0.0), make(rho=1.0),
                                     make(rho=1.0, theta=1.2)]
    mismatches = []
    for q in map(exact, points):
        ts, result = compute_thresholds(q), oracle_thresholds(q)
        solved = (postwar_market_mean(q),
                  *(getattr(result, name).value for name in NAMES))
        if result.anomalies or solved != (ts.postwar_mean,
                                          *(getattr(ts, n) for n in NAMES)):
            mismatches.append(q)
    _report(12, "exact oracle equals exact closed forms", not mismatches,
            f"n={len(points)}, {len(mismatches)} points differ, "
            f"no tolerance")


@pytest.mark.parametrize("points", [
    criterion_1_points,
    criterion_11_points,
    # near delta = 1, where an iterated postwar mean used to drift
    lambda: [make(delta=0.9999, rho=1e-3), make(delta=0.99999, rho=1e-6)],
], ids=["criterion-1", "criterion-11", "patient"])
def test_float_brackets_enclose_exact_values(points):
    misses = []
    for q in points():
        result, ts = oracle_thresholds(q), compute_thresholds(exact(q))
        assert result.anomalies == (), (q, result.anomalies)
        misses += [(q, name) for name in NAMES
                   if not getattr(result, name).lo <= getattr(ts, name)
                   <= getattr(result, name).hi]
    assert misses == []


@pytest.mark.parametrize("points,bound", [
    (criterion_1_points, CLOSED_FORM_BOUND_1),
    (criterion_11_points, CLOSED_FORM_BOUND_11),
], ids=["criterion-1", "criterion-11"])
def test_float_closed_forms_within_bound_of_exact(points, bound):
    # every numeric field within bound * max(1, |v|) of its exact value; the
    # extension label and a theta floor of -inf are equal
    misses = []
    for q in points():
        got, truth = compute_thresholds(q), compute_thresholds(exact(q))
        for name, g, v in zip(got._fields, got, truth):
            if isinstance(v, str) or not math.isfinite(v):
                ok = g == v
            else:
                ok = abs(g - v) <= bound * max(1, abs(v))
            if not ok:
                misses.append((q, name, g, float(v)))
    assert misses == []


def test_float_verdicts_equal_exact_verdicts():
    # verify_period1 on floats certifies what it certifies on the exact
    # parameters, at criterion 1's points under every built-in profile
    differ = []
    for q in criterion_1_points():
        for mode in BUILT_IN_MODES:
            q_mode = playable(q, mode)
            got = verify_period1(q_mode, mode)
            truth = verify_period1(exact(q_mode), mode)
            if (got.passed, got.feasible) != (truth.passed, truth.feasible):
                differ.append((q_mode, mode))
    assert differ == []
