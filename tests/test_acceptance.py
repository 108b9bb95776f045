"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import io
import json
import math
import os
import pathlib

import numpy as np
import pytest

from barriergame.classifier import classify
from barriergame.engine import (
    ProfileMode,
    StrategyProfile,
    analytic_payoffs,
    simulate,
)
from barriergame.oracle import (
    oracle_thresholds,
    verify_period1,
)
from barriergame.params import BarrierDistribution, EliminationMode, ModelParams
from barriergame.cli import run
from barriergame.thresholds import (
    compute_thresholds,
    effective_mu,
)
from conftest import inefficient_joint_threshold_compact, random_valid_params

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SET_B = ModelParams(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6,
                    c_R=1.0, c_D=25.0)


def _report(criterion: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {description} ({detail})")
    assert ok, f"criterion {criterion}: {description} ({detail})"


# How far a float closed form may lie from its exact value, in units of
# max(1, |v|), on criterion 1's points (measured worst 3.2e-14, clow_D) and
# on criterion 11's (3.1e-12, Clow).  tests/test_exact.py holds every field
# of compute_thresholds to them.
CLOSED_FORM_BOUND_1 = 1e-13
CLOSED_FORM_BOUND_11 = 1e-11


def _band_ratio(result, ts, bound: float) -> float:
    """Worst |oracle - closed| over the three thresholds, as a share of the
    oracle's half-band plus the closed form's bound: the exact value lies
    within both, so a share above 1 is a defect."""
    ratio = 0.0
    for name in ("cbar_D", "clow_D", "Clow"):
        bracket, closed = getattr(result, name), getattr(ts, name)
        ratio = max(ratio, abs(bracket.value - closed) / (
            (bracket.hi - bracket.lo) / 2 + bound * max(1.0, abs(closed))))
    return ratio


def _sample_costs(rng, ts) -> tuple[float, float]:
    hi = max(5.0, 1.3 * max(ts.cbar_D, ts.clow_D, 0.0))
    return float(rng.uniform(0.0, hi)), float(rng.uniform(0.0, 10.0))


def test_criterion_1_oracle_threshold_agreement():
    rng = np.random.default_rng(20240817)
    n_points = 1000
    points = [random_valid_params(rng) for _ in range(n_points)]
    worst = ratio = 0.0
    for params in points:
        result = oracle_thresholds(params)
        ts = compute_thresholds(params)
        worst = max(worst,
                    abs(result.cbar_D.value - ts.cbar_D),
                    abs(result.clow_D.value - ts.clow_D),
                    abs(result.Clow.value - ts.Clow))
        ratio = max(ratio, _band_ratio(result, ts, CLOSED_FORM_BOUND_1))
        assert result.anomalies == (), result.anomalies
    _report(1, "oracle-solved thresholds match closed forms",
            worst <= 1e-6 and ratio <= 1.0,
            f"n={n_points}, max|diff|={worst:.3e} <= 1e-06, "
            f"max|diff|/(band/2 + bound)={ratio:.2f} <= 1")


def test_criterion_2_iff_structure():
    rng = np.random.default_rng(20240818)
    n_points = 1000
    checked = 0
    mismatches = []

    def check(params):
        nonlocal checked
        rep = classify(params)
        eff = verify_period1(params, ProfileMode.EFFICIENT_PEACE)
        inef = verify_period1(params, ProfileMode.INEFFICIENT_PEACE)
        checked += 1
        if eff.passed != rep.efficient_peace_exists:
            mismatches.append(("efficient", params))
        if inef.passed != rep.inefficient_peace_exists:
            mismatches.append(("inefficient", params))

    for _ in range(n_points):
        base = random_valid_params(rng)
        ts = compute_thresholds(base)
        c_d, c_r = _sample_costs(rng, ts)
        point = base.with_overrides(c_D=c_d, c_R=c_r)
        check(point)
        # straddle every boundary that lies inside the cost domain
        for boundary in (ts.cbar_D, ts.clow_D):
            for eps in (-1e-3, 1e-3):
                probe = boundary + eps
                if probe >= 0.0:
                    check(point.with_overrides(c_D=probe))
        anchor = max(ts.clow_D, 0.0) + 1.0
        for eps in (-1e-3, 1e-3):
            probe_cr = ts.Clow + eps - anchor
            if probe_cr >= 0.0:
                check(point.with_overrides(c_D=anchor, c_R=probe_cr))

    _report(2, "classification booleans agree with deviation checking",
            not mismatches,
            f"{checked} checks incl. boundary straddles, "
            f"{len(mismatches)} disagreements")


def test_criterion_3_twin_identity():
    rng = np.random.default_rng(20240819)
    n_points = 10_000
    worst = 0.0
    for _ in range(n_points):
        params = random_valid_params(rng).with_overrides(theta=1.0, rho=0.0)
        a = compute_thresholds(params).Clow
        b = inefficient_joint_threshold_compact(params)
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        worst = max(worst, rel)
    _report(3, "joint-threshold algebraic twins agree",
            worst <= 1e-12, f"n={n_points}, max rel err={worst:.3e} <= 1e-12")


def test_criterion_4_reduction_and_endpoints():
    rng = np.random.default_rng(20240820)
    ok = True
    details = []
    for _ in range(100):
        params = random_valid_params(rng).with_overrides(theta=1.0, rho=0.0)
        d, p, p1 = params.delta, params.p, params.p1
        mu, h0 = params.mu, params.h0
        base_cd = (d / (1.0 - d) * (mu * p1 - p) - (1.0 - p1) * h0) / (1.0 - d)
        base_joint = (1.0 - p1 - ((1.0 - d) * h0 * (1.0 - p1)
                                  + d * (1.0 - mu * p1))) / (1.0 - d)
        ts = compute_thresholds(params)
        if ts.clow_D != base_cd:
            ok = False
            details.append("clow_D not bitwise-baseline at theta=1")
        if ts.Clow != base_joint:
            ok = False
            details.append("Clow not bitwise-baseline at theta=1")
        if effective_mu(params.with_overrides(rho=0.0)) != params.mu:
            ok = False
            details.append("effective_mu(rho=0) != mu")
        if effective_mu(params.with_overrides(rho=1.0)) != 1.0:
            ok = False
            details.append("effective_mu(rho=1) != 1")
        cbar = ts.cbar_D
        for kw in ({"mu": rng.uniform(0.3, 1.0)},
                   {"h0": rng.uniform(0.05, 0.95)},
                   {"rho": rng.uniform(0.0, 1.0)},
                   {"theta": 1.0 + rng.uniform(0.0, 1.0 / params.p1 - 1.0)}):
            if compute_thresholds(params.with_overrides(**kw)).cbar_D != cbar:
                ok = False
                details.append(f"cbar_D moved under {kw}")
    _report(4, "theta/rho reductions and endpoint identities are exact",
            ok, "bitwise over 100 random points" if ok else "; ".join(details[:3]))


def test_criterion_5_monotonicity():
    rng = np.random.default_rng(20240821)
    violations = 0
    grids = 0
    for _ in range(10):
        base = random_valid_params(rng).with_overrides(theta=1.0, rho=0.0)
        from barriergame.params import _power_floor
        lo = max(_power_floor(base.mu, base.p), 0.05)
        thetas = np.linspace(lo, 1.0 / base.p1, 100)
        rhos = np.linspace(0.0, 1.0, 100)
        mus = np.linspace(0.3, 1.0, 100)
        ps = np.linspace(0.02, base.p1 - 0.02, 100)

        def series(knob, values, name):
            return [getattr(compute_thresholds(
                        base.with_overrides(**{knob: float(v)})), name)
                    for v in values]

        for knob, values, name, direction in (
                ("theta", thetas, "clow_D", +1),
                ("theta", thetas, "Clow", +1),
                ("rho", rhos, "clow_D", +1),
                ("rho", rhos, "Clow", +1),
                ("mu", mus, "clow_D", +1),
                ("mu", mus, "Clow", +1),
                ("p", ps, "cbar_D", -1),
                ("p", ps, "clow_D", -1)):
            values_out = series(knob, values, name)
            grids += 1
            for a, b in zip(values_out, values_out[1:]):
                if direction * (b - a) < 0.0:
                    violations += 1
    _report(5, "threshold monotonicity in theta, effective mu, and p",
            violations == 0, f"{grids} grids of 100 points, "
            f"{violations} violations")


def test_criterion_6_payoff_identities():
    horizon = 400
    tail = SET_B.delta ** horizon / (1.0 - SET_B.delta)
    assert tail < 1e-8
    worst = 0.0
    cases = [
        (SET_B, ProfileMode.INEFFICIENT_PEACE),
        (SET_B.with_overrides(c_D=35.0), ProfileMode.EFFICIENT_PEACE),
        (SET_B.with_overrides(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.COOPERATIVE_INEFFICIENT),
    ]
    for params, mode in cases:
        profile = StrategyProfile(mode, params)
        dist = BarrierDistribution.degenerate(params.mu)
        stats = simulate(profile, params, dist, horizon=horizon,
                         n_runs=100, seed=0)
        v_r, v_d = analytic_payoffs(params, mode)
        worst = max(worst, abs(stats.payoff_r_mean - v_r),
                    abs(stats.payoff_d_mean - v_d))
        # equal-mean distributions leave the estimates within 3 SE (the
        # on-path flows of these profiles never touch the draws, so the
        # estimator is exact and the bound degenerates to equality)
        for other in (BarrierDistribution.uniform_with_mean(params.mu, 0.2),
                      BarrierDistribution.scaled_beta_with_mean(params.mu)
                      if params.mu < 1.0 else
                      BarrierDistribution.degenerate(params.mu)):
            alt = simulate(profile, params, other, horizon=horizon,
                           n_runs=100_000, seed=1)
            allowed = 3.0 * alt.payoff_d_se
            assert abs(alt.payoff_d_mean - stats.payoff_d_mean) <= allowed
            assert abs(alt.payoff_r_mean - stats.payoff_r_mean) <= \
                3.0 * alt.payoff_r_se

    # conservation holds exactly in every simulated period, including under
    # stochastic draws with the barrier retained
    buf = io.StringIO()
    profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, SET_B)
    simulate(profile, SET_B, BarrierDistribution.degenerate(SET_B.mu),
             horizon=horizon, n_runs=1, seed=0, trace=buf)
    custom = StrategyProfile(
        mode=ProfileMode.CUSTOM, params=SET_B,
        custom_eliminate=lambda t, y, b: t >= 6,
        custom_offer=lambda t, y, b: 0.31 * y,
        custom_accept=lambda t, y, b, o: True)
    simulate(custom, SET_B, BarrierDistribution.uniform_with_mean(0.8, 0.3),
             horizon=80, n_runs=25, seed=2, trace=buf)
    conserved = all(
        rec["flow_r"] + rec["flow_d"] == rec["y"]
        for rec in map(json.loads, buf.getvalue().splitlines())
        if not rec["war"])
    _report(6, "Monte Carlo payoffs match analytic values and conserve flows",
            worst <= 1e-6 and conserved,
            f"max|sim-analytic|={worst:.3e} <= 1e-06, conservation exact")


def test_criterion_7_cooperative_equivalence():
    rng = np.random.default_rng(20240822)
    checked = 0
    exact = True
    while checked < 100:
        base = random_valid_params(rng)
        ts = compute_thresholds(base)
        c_d = max(ts.clow_D, 0.0) + float(rng.uniform(0.1, 5.0))
        c_r = max(ts.Clow - c_d, 0.0) + float(rng.uniform(0.1, 5.0))
        uni = base.with_overrides(c_D=c_d, c_R=c_r,
                                  elimination_mode=EliminationMode.UNILATERAL)
        coop = uni.with_overrides(
            elimination_mode=EliminationMode.COOPERATIVE)
        p_uni = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, uni)
        p_coop = StrategyProfile(ProfileMode.COOPERATIVE_INEFFICIENT, coop)
        dist = BarrierDistribution.degenerate(uni.mu)
        buf_u, buf_c = io.StringIO(), io.StringIO()
        s_u = simulate(p_uni, uni, dist, horizon=150, n_runs=3, seed=0,
                       trace=buf_u)
        s_c = simulate(p_coop, coop, dist, horizon=150, n_runs=3, seed=0,
                       trace=buf_c)
        if (s_u.payoff_r_mean, s_u.payoff_d_mean) != \
                (s_c.payoff_r_mean, s_c.payoff_d_mean):
            exact = False
        if s_u.elimination_periods != s_c.elimination_periods or \
                s_u.war_frequency != s_c.war_frequency:
            exact = False
        for a, b in zip(buf_u.getvalue().splitlines(),
                        buf_c.getvalue().splitlines()):
            ra, rb = json.loads(a), json.loads(b)
            if any(ra[k] != rb[k] for k in
                   ("period", "y", "offer", "flow_r", "flow_d", "war")):
                exact = False
        checked += 1
    _report(7, "joint-consent profile replays the one-sided one exactly",
            exact, f"{checked} random points, trajectories and payoffs equal")


def _band_transitions(csv_path):
    """c_D label transitions per c_R column, from a region CSV."""
    columns = {}
    with open(csv_path) as fh:
        next(fh)
        for line in fh:
            cr, cd, label = line.split(",")[:3]
            columns.setdefault(float(cr), []).append((float(cd), label))
    transitions = {}
    for cr, cells in columns.items():
        cells.sort()
        flips = [(lo[0], hi[0], lo[1], hi[1])
                 for lo, hi in zip(cells, cells[1:]) if lo[1] != hi[1]]
        transitions[cr] = flips
    return transitions


def test_criterion_8_figure_reproduction(tmp_path):
    resolution = 32
    cell = 40.0 / resolution
    specs = {
        "regions": [SET_B],
        "mu-shift": [SET_B.with_overrides(mu=0.5), SET_B.with_overrides(mu=0.8)],
        "p-shift": [SET_B.with_overrides(p=0.2), SET_B.with_overrides(p=0.4)],
    }
    ok = True
    details = []
    for figure_id, panel_params in specs.items():
        svg = tmp_path / f"{figure_id}.svg"
        csv = tmp_path / f"{figure_id}.csv"
        code = run(["figure", figure_id, "--preset", "demo-b",
                    "-o", str(svg), "--csv", str(csv),
                    "--resolution", str(resolution)])
        assert code == 0
        if len(panel_params) == 1:
            csv_paths = [csv]
        else:
            stem, knob = str(csv)[:-4], figure_id.split("-")[0]
            csv_paths = [f"{stem}-{knob}-{format(getattr(p, knob), '.6g')}.csv"
                         for p in panel_params]
        text = svg.read_text()
        expected_dashes = 0
        for params, csv_path in zip(panel_params, csv_paths):
            ts = compute_thresholds(params)
            expected_dashes += sum(0.0 <= v <= 40.0
                                   for v in (ts.cbar_D, ts.clow_D))
            transitions = _band_transitions(csv_path)
            for cr, flips in transitions.items():
                for lo, hi, _, _ in flips:
                    near = min(abs(ts.clow_D - 0.5 * (lo + hi)),
                               abs(ts.cbar_D - 0.5 * (lo + hi)))
                    if near > cell:
                        ok = False
                        details.append(
                            f"{figure_id}: flip at c_D~{0.5 * (lo + hi):.2f} "
                            f"not within one cell of a threshold")
        if text.count('stroke-dasharray="6,4"') != expected_dashes:
            ok = False
            details.append(f"{figure_id}: expected {expected_dashes} dashed "
                           f"boundary lines")
        # the slanted joint-cost line is drawn only when it crosses the
        # positive quadrant, which these presets do not reach
        if text.count('stroke-dasharray="2,3"') != 0:
            ok = False
            details.append(f"{figure_id}: unexpected slanted boundary")
        golden = os.path.join(GOLDEN_DIR, f"{figure_id}.svg")
        if not os.path.exists(golden):
            ok = False
            details.append(f"{figure_id}: golden file missing")
        elif svg.read_bytes() != pathlib.Path(golden).read_bytes():
            ok = False
            details.append(f"{figure_id}: differs from golden file")
    _report(8, "figures reproduce threshold geometry and golden files",
            ok, "boundaries within one cell; byte-identical to goldens"
            if ok else "; ".join(details[:4]))


def test_criterion_9_desk_scale_demo():
    ts = compute_thresholds(SET_B)
    oracle = oracle_thresholds(SET_B)
    checks = {
        "cbar_D=33.0": abs(ts.cbar_D - 33.0) <= 1e-9,
        "clow_D=21.6": abs(ts.clow_D - 21.6) <= 1e-9,
        "Clow=-1.14": abs(ts.Clow + 1.14) <= 1e-9,
        "offer=0.26": abs(ts.offer1_inefficient - 0.26) <= 1e-9,
        "oracle cbar_D": abs(oracle.cbar_D.value - 33.0) <= 1e-6,
        "oracle clow_D": abs(oracle.clow_D.value - 21.6) <= 1e-6,
        "oracle Clow": abs(oracle.Clow.value + 1.14) <= 1e-6,
    }
    failed = [k for k, v in checks.items() if not v]
    _report(9, "worked benchmark point reproduces enshrined values",
            not failed, "all seven identities hold" if not failed
            else f"failed: {failed}")


def test_criterion_11_oracle_agreement_near_delta_one():
    # thresholds grow like 1/(1 - delta)^2 here, so agreement is relative
    rng = np.random.default_rng(20240820)
    n_points = 1000
    points = [random_valid_params(rng).with_overrides(
                  delta=1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.05)))
              for _ in range(n_points)]
    worst = ratio = 0.0
    for params in points:
        result = oracle_thresholds(params)
        assert result.anomalies == (), result.anomalies
        ts = compute_thresholds(params)
        for name in ("cbar_D", "clow_D", "Clow"):
            closed = getattr(ts, name)
            worst = max(worst, abs(getattr(result, name).value - closed)
                        / max(1.0, abs(closed)))
        ratio = max(ratio, _band_ratio(result, ts, CLOSED_FORM_BOUND_11))
    _report(11, "oracle-solved thresholds match closed forms near delta = 1",
            worst <= 1e-7 and ratio <= 1.0,
            f"n={n_points}, delta in [0.95, 0.9999], "
            f"max|diff|/max(1, |v|)={worst:.3e} <= 1e-07, "
            f"max|diff|/(band/2 + bound)={ratio:.2f} <= 1")
