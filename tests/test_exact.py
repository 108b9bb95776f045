"""The exact reference: the closed forms and the oracle evaluate on
``fractions.Fraction`` parameters, where every threshold is a rational
number computed without rounding.

Criterion 12 holds the two to each other with no tolerance, and criterion
13 holds the built-in simulator to the exact flows it plays; the enclosure
tests hold every float bracket of the oracle to the exact value, also
within 1e-4 of delta = 1, the closed-form tests every float field of
``compute_thresholds`` to its exact value within a stated bound, and the
verdict test every float verdict to the exact one.  An exact report holds
no float, and every cell of the golden figures has its exact label.
"""
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import barriergame.cli as cli
from barriergame.classifier import classify
from barriergame.engine import (ProfileExistenceError, ProfileMode,
                                StrategyProfile, analytic_payoffs, simulate)
from barriergame.oracle import (oracle_thresholds, postwar_market_mean,
                               verify_period1)
from barriergame.params import BarrierDistribution, ModelParams
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


def near_one_points():
    # 1 - delta log-uniform in [1e-10, 1e-4], where the rows' terms grow
    # like 1/(1 - delta) and rounding can hide a row's slope
    rng = np.random.default_rng(6)
    return [random_valid_params(rng).with_overrides(
                delta=1.0 - 10.0 ** rng.uniform(-10.0, -4.0))
            for _ in range(300)]


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


def played_flows(profile, horizon):
    """(proposer, responder) flows of each period a built-in profile plays,
    read from its thresholds: the period-1 offer, then the stationary one
    from period 2 on, each clamped into [0, y]."""
    q, ts = profile.params, profile.thresholds
    kept = profile.mode is not ProfileMode.EFFICIENT_PEACE
    for t in range(1, horizon + 1):
        y = q.h0 if kept and t == 1 else 1
        cutoff = (ts.offer_stationary if t > 1 else ts.offer1_inefficient
                  if kept else ts.offer1_efficient)
        offer = min(max(cutoff, 0), y)
        yield y - offer, offer


HORIZONS = (1, 2, 3, 4, 40)


def test_criterion_13_exact_simulator_equals_played_flows():
    # on the Fraction values of 300 of criterion 1's points, under every
    # built-in profile that exists there, each horizon's payoffs are the
    # exact discounted sum of the played flows, and analytic_payoffs less
    # the exact tail of the stationary flows
    cases, mismatches = 0, []
    for q in map(exact, criterion_1_points()[:300]):
        for mode in BUILT_IN_MODES:
            q_mode = playable(q, mode)
            try:
                profile = StrategyProfile(mode, q_mode)
            except ProfileExistenceError:
                continue
            dist = BarrierDistribution.degenerate(q_mode.mu)
            v_r, v_d = analytic_payoffs(q_mode, mode)
            delta = q_mode.delta
            flows = list(played_flows(profile, HORIZONS[-1]))
            stationary_r, stationary_d = flows[1]
            sum_r = sum_d = Fraction(0)
            disc = Fraction(1)
            for t, (flow_r, flow_d) in enumerate(flows, 1):
                sum_r += disc * flow_r
                sum_d += disc * flow_d
                disc *= delta
                if t not in HORIZONS:
                    continue
                cases += 1
                stats = simulate(profile, q_mode, dist, horizon=t, n_runs=1)
                got = (stats.payoff_r_mean, stats.payoff_d_mean)
                tail = disc / (1 - delta)
                if not (all(isinstance(v, Fraction) for v in got)
                        and got == (sum_r, sum_d)
                        == (v_r - tail * stationary_r,
                            v_d - tail * stationary_d)):
                    mismatches.append((q_mode, mode, t))
    _report(13, "exact simulator equals the played flows", not mismatches,
            f"{cases} cases, {len(mismatches)} differ, no tolerance")


@pytest.mark.parametrize("points", [
    criterion_1_points,
    criterion_11_points,
    # near delta = 1, where an iterated postwar mean used to drift; the
    # last point's exact cbar_D lies 2.6 half-bands outside a bracket
    # whose band omits the wide slope's rounding carried to the root
    lambda: [make(delta=0.9999, rho=1e-3), make(delta=0.99999, rho=1e-6),
             ModelParams(delta=0.999999997796971, p=0.0698005913972905,
                         p1=0.9346705324124464, mu=0.40320568067571905,
                         h0=0.47414269320920827, c_R=8.001838917431808,
                         c_D=8.403622329511693, theta=0.1689612086482122)],
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


def test_near_one_brackets_enclose_exact_values():
    # the cbar_D and clow_D rows may be unsolvable within about 1e-8 of
    # delta = 1; Clow's row falls one for one and never is
    misses, anomalies = [], []
    for q in near_one_points():
        result, ts = oracle_thresholds(q), compute_thresholds(exact(q))
        if any(a.startswith("Clow") for a in result.anomalies) or (
                result.anomalies and 1 - q.delta >= 1e-7):
            anomalies.append((q, result.anomalies))
        misses += [(q, name) for name in NAMES
                   if not math.isnan(getattr(result, name).value)
                   and not getattr(result, name).lo <= getattr(ts, name)
                   <= getattr(result, name).hi]
    assert anomalies == []
    assert misses == []


def test_oracle_does_not_read_the_costs():
    # each row is solved on cost-free terms, so the point's own costs move
    # no bit of the result
    for q in near_one_points():
        want = repr(oracle_thresholds(q))
        for c_R, c_D in ((0.0, 0.0), (2 * q.c_R + 1, q.c_D / 3), (1e6, 1e-6)):
            assert repr(oracle_thresholds(
                q.with_overrides(c_R=c_R, c_D=c_D))) == want, q


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


def test_exact_reports_are_exact():
    # on Fraction parameters every gain and diagnostic is a Fraction, or
    # -inf for a deviation that cannot be made: no float enters the path.
    # The identity rows are exact too: the responder is held at its war
    # value, and the stationary war lotteries equal the flows p/(1-delta)
    # and (1-p)/(1-delta), so these rows cross-check war_lottery
    leaks, identities = [], []
    for q in criterion_1_points()[:300]:
        for mode in BUILT_IN_MODES:
            x = exact(playable(q, mode))
            report = verify_period1(x, mode)
            leaks += [(q, mode, key) for key, v in
                      (*report.gains.items(), *report.diagnostics.items())
                      if not (isinstance(v, Fraction) or v == -math.inf)]
            rows = tuple(report.gains[key] for key in (
                "responder_period1", "responder_stationary",
                "proposer_stationary"))
            if rows != (0, 0, -(x.c_R + x.c_D)):
                identities.append((q, mode, rows))
    assert leaks == []
    assert identities == []


def test_golden_figure_cells_have_their_exact_labels(tmp_path, monkeypatch):
    # the panels of the three demo-b golden figures (5 panels at 32^2),
    # captured as the figure command writes them
    grids, real_emit = [], cli.emit_figure

    def emit(panels, *args):
        grids.extend(grid for _, grid in panels)
        return real_emit(panels, *args)

    monkeypatch.setattr(cli, "emit_figure", emit)
    golden = pathlib.Path(__file__).parent / "golden"
    for figure_id in ("regions", "mu-shift", "p-shift"):
        svg = tmp_path / f"{figure_id}.svg"
        assert cli.run(["figure", figure_id, "--preset", "demo-b",
                        "-o", str(svg), "--resolution", "32"]) == 0
        assert svg.read_bytes() == (golden / f"{figure_id}.svg").read_bytes()
    cells, differ = 0, []
    for grid in grids:
        for cd, row in zip(grid.cd_values, grid.rows()):
            for cr, (label, _) in zip(grid.cr_values, row):
                cells += 1
                truth = classify(exact(grid.base.with_overrides(c_R=cr,
                                                                c_D=cd)))
                if truth.label is not label:
                    differ.append((grid.base, cr, cd, label, truth.label))
    assert (len(grids), cells) == (5, 5120)
    assert differ == []
