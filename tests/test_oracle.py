import dataclasses
import hashlib
import inspect
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest

from barriergame import engine, oracle, thresholds
from barriergame.cli import _plain
from barriergame.engine import GameError, ProfileMode, StrategyProfile
from barriergame.oracle import (
    AGREEMENT_CSV_HEADER,
    Bracket,
    OracleThresholds,
    _bisect_up,
    _bisect_up_sets,
    agreement_rows,
    oracle_thresholds,
    oracle_thresholds_batch,
    postwar_market_mean,
    verify_period1,
)
from barriergame.params import (EliminationMode, InvalidParamsError, ModelParams,
                                sample_valid_points)
from barriergame.thresholds import (
    compute_thresholds,
    effective_mu,
)
from conftest import assert_close, make, random_valid_params


EDGE_POINTS = [
    ModelParams(delta=0.99, p=0.3, p1=0.7, mu=0.8, h0=0.6,
                c_R=1.0, c_D=25.0),
    ModelParams(delta=0.8, p=0.0, p1=1.0, mu=0.7, h0=0.4,
                c_R=2.0, c_D=8.0),
    # theta at its admissible cap: theta * p1 == 1
    ModelParams(delta=0.6, p=0.2, p1=0.8, mu=0.9, h0=0.5,
                c_R=1.0, c_D=5.0, theta=1.25),
    ModelParams(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6,
                c_R=1.0, c_D=25.0, rho=0.5, theta=1.2),
]


# the postwar mean is still moving after POSTWAR_MEAN_MAX_ITER steps
SLOW_MEAN = make(delta=0.99999, rho=1e-6)


def playable(q, mode):
    """q under the elimination mode the built-in profile is played under."""
    if mode is ProfileMode.COOPERATIVE_INEFFICIENT:
        return q.with_overrides(elimination_mode=EliminationMode.COOPERATIVE)
    return q


# 6000 random points, 50 of them with overflowing costs and 50 with a
# negative c_D
REPORT_POINTS = sample_valid_points(np.random.default_rng(5), 6000)
REPORT_POINTS += ([q._replace(c_R=1e308, c_D=1e308) for q in REPORT_POINTS[:50]]
                  + [q._replace(c_D=-3.0) for q in REPORT_POINTS[:50]])
BUILT_IN_MODES = (ProfileMode.EFFICIENT_PEACE, ProfileMode.INEFFICIENT_PEACE,
                  ProfileMode.COOPERATIVE_INEFFICIENT)


def report_digest(points, text) -> str:
    """SHA-256 over text(report), or the refusal's type and text, of each
    point under each built-in profile, in the elimination mode the profile
    is played under."""
    digest = hashlib.sha256()
    for q in points:
        for mode in BUILT_IN_MODES:
            try:
                r = verify_period1(playable(q, mode), mode)
            except Exception as e:
                line = type(e).__name__ + str(e)
            else:
                line = text(r)
            digest.update(line.encode())
    return digest.hexdigest()


class TestPostwarMean:
    def test_matches_closed_form(self):
        for rho in (0.0, 0.25, 0.5, 0.9, 1.0):
            params = make(rho=rho)
            assert_close(postwar_market_mean(params), effective_mu(params), 1e-10)

    def test_unconverged_is_nan(self):
        # contraction factor (1 - rho) * delta ~ 0.99999: the last iterate
        # (0.81213) is far from the fixed point (0.81818), so none is given
        assert math.isnan(postwar_market_mean(SLOW_MEAN))
        assert_close(effective_mu(SLOW_MEAN), 0.8181818, 1e-6)


class TestVerify:
    @pytest.mark.parametrize("mode", [ProfileMode.EFFICIENT_PEACE,
                                      ProfileMode.INEFFICIENT_PEACE])
    def test_unconverged_postwar_mean_refused(self, mode):
        with pytest.raises(InvalidParamsError) as err:
            verify_period1(SLOW_MEAN, mode)
        assert err.value.violations == (
            "postwar_mean: no convergence in 100000 steps",)

    def test_pass_at_demo_point(self):
        report = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.passed and report.feasible
        assert report.max_gain_r <= 1e-9
        assert report.max_gain_d <= 1e-9

    def test_fail_below_cd_threshold(self):
        report = verify_period1(make(c_D=20.0), ProfileMode.INEFFICIENT_PEACE)
        assert not report.passed
        # the responder strictly prefers war by the scaled feasibility gap
        gap = (1.0 - 0.9) * (21.6 - 20.0)
        assert_close(report.max_gain_d, gap, 1e-9)
        assert "responder" in report.best_deviation

    def test_pass_exactly_at_threshold(self):
        c_low = compute_thresholds(make()).clow_D
        report = verify_period1(make(c_D=c_low), ProfileMode.INEFFICIENT_PEACE)
        assert report.passed
        assert abs(report.max_gain_d) <= 1e-9
        assert report.max_gain_r <= 1e-9

    def test_efficient_profile(self):
        assert verify_period1(make(c_D=35.0), ProfileMode.EFFICIENT_PEACE).passed
        report = verify_period1(make(c_D=30.0), ProfileMode.EFFICIENT_PEACE)
        assert not report.passed
        assert_close(report.max_gain_d, (1.0 - 0.9) * (33.0 - 30.0), 1e-9)

    def test_joint_condition_detected(self):
        # weak power shift with a mild barrier: Clow > 0 > clow_D, so cheap
        # joint costs make eliminating-and-fighting profitable
        params = make(delta=0.5, p=0.5, p1=0.55, mu=0.95, h0=0.1,
                      c_D=0.1, c_R=0.0)
        ts = compute_thresholds(params)
        assert ts.clow_D <= params.c_D and params.c_D + params.c_R < ts.Clow
        report = verify_period1(params, ProfileMode.INEFFICIENT_PEACE)
        assert not report.passed
        assert_close(report.gains["eliminate_then_war"],
                     ts.Clow - (params.c_D + params.c_R), 1e-9)
        assert "proposer" in report.best_deviation

    def test_cooperative_same_numbers(self):
        a = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        b = verify_period1(
            make(c_D=25.0, elimination_mode=EliminationMode.COOPERATIVE),
            ProfileMode.COOPERATIVE_INEFFICIENT)
        # gains, diagnostics and verdict alike
        assert a._replace(mode=b.mode) == b

    def test_custom_rejected(self):
        with pytest.raises(ValueError):
            verify_period1(make(), ProfileMode.CUSTOM)

    @pytest.mark.parametrize("q, mode", [
        (make(), ProfileMode.COOPERATIVE_INEFFICIENT),
        (make(c_D=35.0, elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.EFFICIENT_PEACE),
        (make(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.INEFFICIENT_PEACE),
    ], ids=["cooperative", "efficient", "inefficient"])
    def test_unplayable_elimination_mode_refused(self, q, mode):
        # no profile is certified under an elimination mode it cannot be
        # played under; the refusal is the one StrategyProfile makes
        with pytest.raises(GameError) as built:
            StrategyProfile(mode, q)
        with pytest.raises(GameError) as verified:
            verify_period1(q, mode)
        assert str(verified.value) == str(built.value)
        assert verify_period1(playable(q.with_overrides(
            elimination_mode=EliminationMode.UNILATERAL), mode), mode).passed

    @pytest.mark.parametrize("mode,last", [
        (ProfileMode.EFFICIENT_PEACE, "keep_trigger=-inf"),
        (ProfileMode.INEFFICIENT_PEACE, "eliminate_then_war=-inf"),
        (ProfileMode.COOPERATIVE_INEFFICIENT, "eliminate_then_war=-inf"),
    ])
    def test_overflowing_gains_refused(self, mode, last):
        # both costs are finite, but the proposer's gains overflow to -inf;
        # no verdict is read off them
        with pytest.raises(InvalidParamsError) as info:
            verify_period1(playable(make(c_R=1.7e308, c_D=1.7e308), mode),
                           mode)
        assert info.value.violations == (
            "finite period-1 terms required, got war_period1=-inf, "
            f"proposer_stationary=-inf, {last}",)

    def test_nonfinite_war_value_named(self):
        with pytest.raises(InvalidParamsError,
                           match=r"got war_r_free=-inf, war_r_bar=-inf, "):
            verify_period1(make(c_R=math.inf), ProfileMode.INEFFICIENT_PEACE)
        with pytest.raises(InvalidParamsError,
                           match=r"got war_d_free=nan, war_d_bar=nan, "
                                 r"v_d2=nan, v_r2=nan, "):
            verify_period1(make(c_D=math.nan), ProfileMode.EFFICIENT_PEACE)

    def test_unacceptable_offer_sentinel_kept(self):
        # no offer fits the barrier-keeping path: the scan's -inf is a
        # deliberate verdict, not an overflow
        report = verify_period1(make(c_D=5.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.gains["offer_scan"] == -math.inf
        assert not report.passed
        assert all(math.isfinite(v) for k, v in report.gains.items()
                   if k != "offer_scan")

    def test_large_finite_costs_still_certified(self):
        # a huge c_R alone leaves every gain finite
        report = verify_period1(make(c_R=1.7e308),
                                ProfileMode.INEFFICIENT_PEACE)
        assert report.passed

    def test_grid_quantum_bound(self):
        report = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        # the scan offers the exact indifference point, so its gain is zero
        assert abs(report.gains["offer_scan"]) <= 1e-12

    def test_reports_pinned(self):
        # every report (repr, and the order of its gains and diagnostics) or
        # refusal at REPORT_POINTS
        assert report_digest(REPORT_POINTS, lambda r: (
            repr(r) + repr(list(r.gains.items()))
            + repr(list(r.diagnostics.items())))) == (
            "daead53baffe4a9a26a6eefe0dbb65143199637c15afda785a9cb797fa5d8870")

    def test_verdicts_pinned(self):
        # the verdict of every report (or the refusal) at REPORT_POINTS and
        # at 300 of them with c_D drawn five times from U(-5, 60), which
        # puts the period-1 cutoffs below, inside and above [0, y1]
        draws = np.random.default_rng(7).uniform(-5.0, 60.0, (300, 5))
        points = REPORT_POINTS + [q._replace(c_D=float(c)) for q, row
                                  in zip(REPORT_POINTS, draws) for c in row]
        assert report_digest(points, lambda r: repr(
            (r.passed, r.feasible, r.max_gain_r, r.max_gain_d))) == (
            "f7b597dfcfb2d54fefa047145e1f03b38853e0a7d164f1e81b0f028d24287b00")


def dense_offer_scan(q, mode):
    """The offer-scan gain of a dense reference scan: the best of 10 001
    evenly spaced offers in [0, y1], plus the cutoff when it lies in
    [0, y1], that the responder accepts, priced on the period-1 terms
    ``verify_period1`` reads; -inf when it accepts none."""
    w = oracle._war_terms(q, postwar_market_mean(q))
    efficient = mode is ProfileMode.EFFICIENT_PEACE
    y1, gross = (1.0, w.free) if efficient else (q.h0, w.bar)
    cutoff1 = w.cutoff1(gross[1], q.c_D)
    v_eq_r = w.v_eq_r(y1, cutoff1, q.c_D)
    grid = np.linspace(0.0, y1, 10_001)
    if 0.0 <= cutoff1 <= y1:
        grid = np.append(grid, cutoff1)
    accepted = grid[grid >= cutoff1]
    if not accepted.size:
        return -math.inf
    return float(((y1 - accepted) + q.delta * (w.r_flow + q.c_D)).max()) - v_eq_r


class TestOfferCandidates:
    D_KEYS = ("feasibility", "responder_period1", "responder_stationary")

    def test_dense_scan_is_reference(self):
        # demo-b's barrier-keeping cutoff lies below 0, inside [0, h0] and
        # above h0 at c_D = 35, 25 and 5
        named = [make(c_D=c) for c in (35.0, 25.0, 5.0)]
        cutoffs = [compute_thresholds(q).offer1_inefficient for q in named]
        assert cutoffs[0] < 0.0 <= cutoffs[1] <= 0.6 < cutoffs[2]
        rng = np.random.default_rng(20240823)
        points = [random_valid_params(rng) for _ in range(1000)] + named
        for q in points:
            for mode in BUILT_IN_MODES:
                r = verify_period1(playable(q, mode), mode)
                gains = {**r.gains, "offer_scan": dense_offer_scan(q, mode)}
                # the verdict the dense gains give, by verify_period1's rule
                max_gain_d = max(gains[k] for k in self.D_KEYS)
                max_gain_r = max(v for k, v in gains.items()
                                 if k not in self.D_KEYS)
                passed = max_gain_r <= r.tol and max_gain_d <= r.tol
                worst = max(gains, key=lambda k: gains[k])
                assert r.gains == gains
                assert (r.max_gain_r, r.max_gain_d, r.passed) == (
                    max_gain_r, max_gain_d, passed)
                assert r.feasible == (gains["feasibility"] <= r.tol)
                if passed:
                    assert r.best_deviation == "none above tolerance"
                elif worst in self.D_KEYS:
                    assert r.best_deviation.startswith("responder rejects")
                else:
                    assert r.best_deviation.startswith(f"proposer {worst} ")


class TestDiagnostics:
    def test_full_deviation_scan_clean_in_assumption_region(self):
        # theta = 1 and c_D below the efficient threshold: every cross-
        # elimination deviation is also unprofitable
        report = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.diagnostics["eliminate_best_response"] <= 1e-9
        report = verify_period1(make(c_D=22.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.diagnostics["eliminate_best_response"] <= 1e-9

    def test_keep_branch_flagged_when_barrier_path_dominates(self):
        # where both peace regimes coexist and the joint threshold is
        # negative, retaining the barrier beats the efficient construction;
        # certification follows the existence conditions and the diagnostic
        # records the gap
        params = make(c_D=35.0)
        ts = compute_thresholds(params)
        assert ts.Clow < 0.0
        report = verify_period1(params, ProfileMode.EFFICIENT_PEACE)
        assert report.passed
        assert_close(report.diagnostics["keep_best_response"], -ts.Clow, 1e-9)

    def test_military_advantage_gap_exposed(self):
        # small theta makes the barrier a military asset for the proposer:
        # the existence formulas ignore the keep-and-fight route, which the
        # diagnostics surface
        params = ModelParams(delta=0.5, p=0.05, p1=0.6, mu=0.9, h0=0.9,
                             c_R=0.1, c_D=0.35, theta=0.01)
        ts = compute_thresholds(params)
        assert params.c_D >= ts.cbar_D
        report = verify_period1(params, ProfileMode.EFFICIENT_PEACE)
        assert report.passed  # certification mirrors the existence conditions
        assert report.diagnostics["keep_trigger"] > 0.0
        assert report.diagnostics["keep_best_response"] > 0.0


class TestAgreementSummary:
    def test_rows_pair_with_header(self):
        rows = agreement_rows(4, seed=11)
        assert len(rows) == 4
        n_cols = len(AGREEMENT_CSV_HEADER.split(","))
        for row in rows:
            fields = row.split(",")
            assert len(fields) == n_cols
            assert float(fields[-2]) <= 1e-6
            assert fields[-1] == "0"

    @pytest.mark.parametrize("key", ["cbar_D", "clow_D", "Clow"])
    def test_max_abs_diff_nan_when_a_bracket_has_no_value(self, monkeypatch,
                                                         key):
        # max alone keeps a finite diff over a nan that comes after it
        batch = oracle.oracle_thresholds_batch

        def no_value(points):
            out = []
            for r in batch(points):
                kw = {k: getattr(r, k) for k in ("cbar_D", "clow_D", "Clow")}
                kw[key] = Bracket(math.nan, kw[key].lo, kw[key].hi)
                out.append(OracleThresholds(**kw, search_tol=r.search_tol))
            return out

        monkeypatch.setattr(oracle, "oracle_thresholds_batch", no_value)
        col = AGREEMENT_CSV_HEADER.split(",").index(f"{key}_oracle")
        for row in agreement_rows(4, seed=11):
            fields = row.split(",")
            assert (fields[col], fields[-2], fields[-1]) == ("nan", "nan", "0")


class TestOracleThresholds:
    def test_demo_point(self):
        result = oracle_thresholds(make())
        assert_close(result.cbar_D.value, 33.0, 1e-6)
        assert_close(result.clow_D.value, 21.6, 1e-6)
        assert_close(result.Clow.value, -1.14, 1e-6)
        assert result.anomalies == ()

    def test_theta_variant(self):
        result = oracle_thresholds(make(theta=1.2))
        assert_close(result.clow_D.value, 32.52, 1e-6)
        assert_close(result.cbar_D.value, 33.0, 1e-6)

    def test_rho_one_uses_full_postwar_market(self):
        params = make(rho=1.0)
        result = oracle_thresholds(params)
        assert_close(result.clow_D.value, compute_thresholds(params).clow_D, 1e-6)
        # effective market value is 1, so the threshold exceeds the baseline
        assert result.clow_D.value > 21.6

    def test_negative_threshold_recovered(self):
        params = make(delta=0.5, p=0.2, p1=0.6, mu=0.5, h0=0.5)
        result = oracle_thresholds(params)
        assert_close(result.clow_D.value, -0.2, 1e-6)
        assert_close(result.cbar_D.value, 0.0, 1e-6)
        assert_close(result.Clow.value, -0.1, 1e-6)

    def test_brackets_contain_values(self):
        result = oracle_thresholds(make())
        for bracket in (result.cbar_D, result.clow_D, result.Clow):
            assert bracket.lo <= bracket.value <= bracket.hi
            assert bracket.hi - bracket.lo <= 1e-7

    def test_random_points_agree(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            params = random_valid_params(rng)
            ts = compute_thresholds(params)
            result = oracle_thresholds(params)
            assert_close(result.cbar_D.value, ts.cbar_D, 1e-6)
            assert_close(result.clow_D.value, ts.clow_D, 1e-6)
            assert_close(result.Clow.value, ts.Clow, 1e-6)

    @pytest.mark.parametrize("override", [{"delta": 1.0}, {"p1": 0.1}],
                             ids=["delta-one", "p1-below-p"])
    def test_invalid_point_refused(self, override):
        bad = make(**override)
        with pytest.raises(InvalidParamsError):
            oracle_thresholds(bad)
        with pytest.raises(InvalidParamsError):
            oracle_thresholds_batch([make(), bad])

    @pytest.mark.parametrize("params", EDGE_POINTS,
                             ids=["patient", "p-zero-p1-one", "theta-cap",
                                  "composed"])
    def test_edge_parameter_agreement(self, params):
        ts = compute_thresholds(params)
        result = oracle_thresholds(params)
        assert result.anomalies == ()
        assert_close(result.cbar_D.value, ts.cbar_D, 1e-6)
        assert_close(result.clow_D.value, ts.clow_D, 1e-6)
        assert_close(result.Clow.value, ts.Clow, 1e-6)


class TestRecords:
    """``Bracket`` and ``OracleThresholds`` are immutable named tuples:
    built by keyword, read by attribute, printed as the frozen dataclasses
    they replace, and written as JSON by their fields."""

    OLD = {"Bracket": dataclasses.make_dataclass(
               "Bracket", ["value", "lo", "hi"], frozen=True),
           "OracleThresholds": dataclasses.make_dataclass(
               "OracleThresholds", ["cbar_D", "clow_D", "Clow", "search_tol",
                                    ("anomalies", tuple, dataclasses.field(
                                        default=()))], frozen=True)}

    def test_keyword_construction(self):
        b = Bracket(value=1.5, lo=1.25, hi=1.75)
        assert (b.value, b.lo, b.hi) == (1.5, 1.25, 1.75)
        r = OracleThresholds(cbar_D=b, clow_D=b, Clow=b, search_tol=1e-8)
        assert r.cbar_D is b and r.Clow is b and r.search_tol == 1e-8
        assert r.anomalies == ()
        assert OracleThresholds(**r._asdict()) == r

    @pytest.mark.parametrize("record, field", [
        (Bracket(1.0, 0.5, 2.0), "value"),
        (oracle_thresholds(make()), "clow_D"),
        (oracle_thresholds(make()), "anomalies")],
        ids=["Bracket", "OracleThresholds", "OracleThresholds-default"])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.unknown = 0.0

    @pytest.mark.parametrize("params", [make(), SLOW_MEAN],
                             ids=["finite", "nan"])
    def test_repr_is_the_dataclass_repr(self, params):
        result = oracle_thresholds(params)
        brackets = [self.OLD["Bracket"](*b) for b in result[:3]]
        old = self.OLD["OracleThresholds"](*brackets, *result[3:])
        assert repr(result) == repr(old)
        assert repr(result.Clow).startswith(
            "Bracket(value=nan, " if params is SLOW_MEAN else "Bracket(value=-1.1")

    def test_to_dict_keys_are_fields(self):
        d = _plain(oracle_thresholds(SLOW_MEAN))
        assert list(d) == list(OracleThresholds._fields)
        for key in ("cbar_D", "clow_D", "Clow"):
            assert list(d[key]) == list(Bracket._fields)
        assert isinstance(d["anomalies"], list) and len(d["anomalies"]) == 3


class TestLockstepBatch:
    def test_agreement_golden_bytes(self):
        # brackets are bit-for-bit those of the one-point-at-a-time scalar
        # bisection that produced this file; a one-ulp move fails here.
        # Regenerate with: barriergame verify --preset demo-b --agreement 20
        #   --seed 11 --agreement-csv tests/golden/agreement-seed11.csv
        path = os.path.join(os.path.dirname(__file__), "golden",
                            "agreement-seed11.csv")
        with open(path) as fh:
            golden = fh.read()
        text = AGREEMENT_CSV_HEADER + "\n" + "\n".join(
            agreement_rows(20, seed=11)) + "\n"
        assert text == golden

    def test_lanes_independent_of_batch(self, monkeypatch):
        # each lockstep lane gives exactly the record of the lone float
        # bisection at its point (repr: a nan bracket is unequal to itself)
        points = [
            make(rho=0.0), make(rho=0.37), make(rho=1.0),
            make(theta=1.2), make(theta=0.9, rho=0.6),
            # negative clow_D and Clow
            make(delta=0.5, p=0.2, p1=0.6, mu=0.5, h0=0.5),
            *EDGE_POINTS, SLOW_MEAN,
        ]
        rng = np.random.default_rng(7)
        points += [random_valid_params(rng) for _ in range(1000)]
        # patient points: delta in [0.95, 0.9999]
        points += [random_valid_params(rng).with_overrides(
                       delta=1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.05)))
                   for _ in range(500)]
        for tol in (1e-8, 1e-13, 1e-4):
            monkeypatch.setattr(oracle, "SEARCH_TOL", tol)
            batch = oracle_thresholds_batch(points)
            assert len(batch) == len(points)
            for params, result in zip(points, batch):
                assert repr(result) == repr(oracle_thresholds(params)), tol
        assert oracle_thresholds_batch([]) == []

    @pytest.mark.parametrize("entry", ["single", "batch"])
    def test_setup_work_independent_of_steps(self, monkeypatch, entry):
        # everything but the bisected cost is computed once per call: a
        # tighter tolerance adds predicate calls, but no ModelParams
        # constructions and no engine calls; a batch builds one set of
        # lanes and one set of war terms
        q = make()
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ModelParams, "__new__",
                            counted("ModelParams", ModelParams.__new__))
        for name in ("war_lottery", "win_prob_d"):
            monkeypatch.setattr(engine, name,
                                counted(name, getattr(engine, name)))
        if entry == "single":
            # the float path imports no numpy: any import of it raises
            monkeypatch.setitem(sys.modules, "numpy", None)
            bisect = oracle._bisect_up
            monkeypatch.setattr(
                oracle, "_bisect_up",
                lambda predicate, *a: bisect(counted("predicate", predicate),
                                             *a))
            run = lambda: oracle_thresholds(q)
        else:
            bisect = oracle._bisect_up_sets
            monkeypatch.setattr(
                oracle, "_bisect_up_sets",
                lambda predicate, n, **kw: bisect(
                    counted("predicate", predicate), n, **kw))
            run = lambda: oracle_thresholds_batch([q])
        per_tol = {}
        for tol in (1e-4, 1e-13):
            counts.clear()
            monkeypatch.setattr(oracle, "SEARCH_TOL", tol)
            run()
            per_tol[tol] = dict(counts)
        loose, tight = per_tol[1e-4], per_tol[1e-13]
        assert tight.pop("predicate") >= loose.pop("predicate") + 40
        assert tight == loose
        assert loose["war_lottery"] == 2
        if entry == "single":
            assert "ModelParams" not in loose
        else:
            assert loose["ModelParams"] == 1    # the one lanes() call

    def test_unconverged_postwar_mean_is_an_anomaly(self):
        # the slow point's mean is nan, so clow_D and Clow
        # have no value, and the anomaly names the cause first; cbar_D does
        # not read the mean, and the other lane is untouched
        demo, slow = oracle_thresholds_batch([make(), SLOW_MEAN])
        assert demo == oracle_thresholds(make())
        assert slow.anomalies == (
            "postwar_mean: no convergence in 100000 steps",
            "clow_D: no passing point up to 1.8446744073709552e+19",
            "Clow: no passing point up to 1.8446744073709552e+19")
        assert math.isnan(slow.clow_D.value) and math.isnan(slow.Clow.value)
        assert math.isclose(slow.cbar_D.value,
                            compute_thresholds(SLOW_MEAN).cbar_D, rel_tol=1e-9)

    def test_anomaly_paths(self):
        lone = [
            lambda x: False,                            # never passes
            lambda x: True,                             # never fails
            # a passing island just below the boundary at 2.5
            lambda x: x >= 2.5 or 2.5 - 1.5e-6 < x < 2.5 - 0.5e-6,
            lambda x: x >= 0.37,                        # well behaved
        ]

        def predicate(x):
            return np.array([f(v) for f, v in zip(lone, x)])

        lanes = _bisect_up_sets(predicate, 4)
        (never_pass, n0), (never_fail, n1), (island, n2), (normal, n3) = lanes
        assert math.isnan(never_pass.value)
        assert (never_pass.lo, never_pass.hi) == (-1.0, 2.0 ** 64)
        assert n0 == "no passing point up to 1.8446744073709552e+19"
        assert math.isnan(never_fail.value)
        assert (never_fail.lo, never_fail.hi) == (-(2.0 ** 64), 1.0)
        assert n1 == "no failing point down to -1.8446744073709552e+19"
        assert island == Bracket(2.4999985015019774, 2.4999984968453646,
                                 2.4999985061585903)
        assert n2 == ("predicate not monotone around 2.4999985015019774; "
                      "the existence condition may not be an interval")
        assert normal == Bracket(0.3700000010430813, 0.369999997317791,
                                 0.3700000047683716)
        assert n3 is None
        # the same lane alone takes the same steps, in lockstep and on floats
        assert _bisect_up_sets(lambda x: x >= 0.37, 1) == [(normal, None)]
        for f, lane in zip(lone, lanes):
            assert repr(_bisect_up(f)) == repr(lane)

    def test_no_false_anomaly_near_delta_one(self):
        # the feasibility predicate moves with the cost at rate 1 - delta,
        # so near delta = 1 rounding alone flips it within about
        # ulp(|clow_D|) / (1 - delta) = 2.2e-6 of the boundary, wider than
        # a fixed 1e-6 probe; the probe scales with that band instead
        q = ModelParams(delta=0.9998937534481658, p=0.47889639294569647,
                        p1=0.6252236074796401, mu=0.7365483637824521,
                        h0=0.06566167438462142, c_R=3.6534990202737125,
                        c_D=4.88142903470984)
        result = oracle_thresholds(q)
        assert result.anomalies == ()
        assert result.clow_D == Bracket(-1629083.2231412013,
                                        -1629083.223141205,
                                        -1629083.2231411976)
        closed = compute_thresholds(q).clow_D
        assert abs(result.clow_D.value - closed) <= 1e-9 * abs(closed)


class TestReadsNoClosedForm:
    @staticmethod
    def results(points) -> str:
        single = [[verify_period1(playable(q, mode), mode)
                   for mode in BUILT_IN_MODES]
                  + [oracle_thresholds(q)] for q in points]
        return repr((single, oracle_thresholds_batch(points)))

    def test_results_unchanged_without_thresholds(self, monkeypatch):
        # the oracle re-derives what the closed forms state: with every
        # public function of barriergame.thresholds replaced by a raiser,
        # wherever a module of the package holds it, nothing it returns
        # moves.  agreement_rows compares against the closed forms on
        # purpose, so it is not run here.
        rng = np.random.default_rng(2019)
        points = [make(), make(rho=0.3, theta=1.1)] + \
            [random_valid_params(rng) for _ in range(50)]
        expected = self.results(points)
        closed_forms = {
            id(obj): name for name, obj in vars(thresholds).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == thresholds.__name__}

        def raiser(name):
            def closed_form(*args, **kwargs):
                raise AssertionError(f"the oracle read thresholds.{name}")
            return closed_form

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "barriergame":
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in closed_forms:
                    monkeypatch.setattr(module, attr,
                                        raiser(closed_forms[id(obj)]))
        with pytest.raises(AssertionError, match="effective_mu"):
            thresholds.effective_mu(make())
        assert self.results(points) == expected
