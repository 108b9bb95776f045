import hashlib
import io
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from barriergame import cli, engine
from barriergame.engine import (
    ActionRecord,
    GameError,
    GameState,
    ProfileExistenceError,
    ProfileMode,
    Response,
    StrategyProfile,
    _war_continuation,
    analytic_payoffs,
    resolve_elimination,
    simulate,
    step,
    war_lottery,
)
from barriergame.params import (
    BarrierDistribution,
    EliminationMode,
    InvalidParamsError,
)
from barriergame.oracle import verify_period1
from barriergame.thresholds import compute_thresholds, effective_mu
from conftest import assert_close, make, random_valid_params


DIST = BarrierDistribution.degenerate(0.8)


def accept(offer, elim_r=False, elim_d=None):
    return ActionRecord(elim_r=elim_r, offer=offer, response=Response.ACCEPT,
                        elim_d=elim_d)


def reject(offer=0.0, elim_r=False, elim_d=None):
    return ActionRecord(elim_r=elim_r, offer=offer, response=Response.REJECT,
                        elim_d=elim_d)


def start(params):
    """Period 1: the barrier stands and the resource is h0."""
    return GameState(t=1, barrier_present=True, y=params.h0)


def assert_war_odds(state, actions, params, wp):
    """Rejection ends the game in war and the responder wins exactly when
    the draw falls below ``wp``: a draw one ulp under it is a "D" win, a
    draw equal to it an "R" win."""
    for u, winner in ((math.nextafter(wp, 0.0), "D"), (wp, "R")):
        end = step(state, actions, params, DIST,
                   SimpleNamespace(random=lambda: u))
        assert end.war_occurred and end.t == state.t
        assert end.winner == winner, (u, wp)


class TestStateMachine:
    def test_elimination_sets_full_resource(self):
        state = start(make())
        y_eff, barrier = resolve_elimination(state, True, None, make())
        assert y_eff == 1.0 and not barrier

    def test_accept_advances_with_draw(self):
        rng = np.random.default_rng(0)
        state = start(make())
        nxt = step(state, accept(0.2), make(), DIST, rng)
        assert isinstance(nxt, GameState)
        assert nxt.t == 2 and nxt.barrier_present and nxt.y == 0.8

    def test_accept_after_elimination(self):
        rng = np.random.default_rng(0)
        state = start(make())
        nxt = step(state, accept(0.5, elim_r=True), make(), DIST, rng)
        assert nxt.y == 1.0 and not nxt.barrier_present

    def test_offer_out_of_range(self):
        rng = np.random.default_rng(0)
        state = start(make())
        with pytest.raises(GameError, match="outside"):
            step(state, accept(0.7), make(), DIST, rng)  # y = h0 = 0.6
        with pytest.raises(GameError, match="outside"):
            step(state, accept(-0.1), make(), DIST, rng)

    def test_reject_is_terminal_with_period1_odds(self):
        params = make()  # theta = 1, barrier kept
        assert_war_odds(start(params), reject(), params, params.p1)

    def test_war_probability_uses_theta_with_barrier(self):
        params = make(theta=1.2)
        assert_war_odds(start(params), reject(), params, 1.2 * 0.7)
        # after elimination the modifier no longer applies
        assert_war_odds(start(params), reject(elim_r=True), params, params.p1)

    def test_post_shift_war_odds(self):
        params = make(theta=1.2)
        state = GameState(t=3, barrier_present=False, y=1.0)
        assert_war_odds(state, reject(), params, params.p)

    def test_winner_frequency(self):
        params = make()
        rng = np.random.default_rng(42)
        state = start(params)
        wins = sum(step(state, reject(), params, DIST, rng).winner == "D"
                   for _ in range(20_000))
        assert abs(wins / 20_000 - 0.7) < 3.0 * math.sqrt(0.7 * 0.3 / 20_000)

    def test_terminal_state_absorbing(self):
        params = make()
        end = step(start(params), reject(), params, DIST,
                   np.random.default_rng(0))
        with pytest.raises(GameError, match="after war"):
            step(end, accept(0.1), params, DIST,
                 np.random.default_rng(0))

    def test_cooperative_requires_both(self):
        params = make(elimination_mode=EliminationMode.COOPERATIVE)
        state = start(params)
        y_eff, barrier = resolve_elimination(state, False, True, params)
        assert barrier and y_eff == 0.6
        y_eff, barrier = resolve_elimination(state, True, True, params)
        assert not barrier and y_eff == 1.0

    def test_mode_vote_mismatch(self):
        state = start(make())
        with pytest.raises(GameError, match="forbids elim_d"):
            resolve_elimination(state, False, True, make())
        coop = make(elimination_mode=EliminationMode.COOPERATIVE)
        with pytest.raises(GameError, match="requires elim_d"):
            resolve_elimination(start(coop), False, None, coop)


class TestProfiles:
    def test_inefficient_on_path(self):
        params = make(c_D=25.0)
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        assert profile.prescribed_votes(1, True) == (False, None)
        assert profile.prescribed_votes(2, True) == (True, None)
        assert_close(profile.offer(1, 0.6, True), 0.26)
        assert profile.offer(2, 1.0, False) == 0.0  # raw -2.2 clamped
        own = profile.offer(1, 0.6, True)
        assert profile.accepts(1, 0.6, True, own)
        assert not profile.accepts(1, 0.6, True, 0.25)
        assert profile.accepts(2, 1.0, False, 0.0)

    def test_efficient_on_path(self):
        params = make(c_D=35.0)
        profile = StrategyProfile(ProfileMode.EFFICIENT_PEACE, params)
        assert profile.prescribed_votes(1, True) == (True, None)
        assert_close(profile.offer(1, 1.0, False), 0.8)

    def test_off_path_trigger(self):
        params = make(c_D=25.0)
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        assert not profile.accepts(1, 1.0, False, 1.0)

    def test_refusal_names_threshold(self):
        with pytest.raises(ProfileExistenceError, match="clow_D"):
            StrategyProfile(ProfileMode.INEFFICIENT_PEACE, make(c_D=20.0))
        with pytest.raises(ProfileExistenceError, match="cbar_D"):
            StrategyProfile(ProfileMode.EFFICIENT_PEACE, make(c_D=30.0))

    def test_joint_condition_refusal(self):
        # weak power shift, mild barrier: Clow > 0 > clow_D, so tiny joint
        # costs refuse the profile on the joint condition
        params = make(delta=0.5, p=0.5, p1=0.55, mu=0.95, h0=0.1,
                      c_D=0.1, c_R=0.0)
        from barriergame.thresholds import compute_thresholds
        ts = compute_thresholds(params)
        assert ts.clow_D <= params.c_D < ts.Clow
        with pytest.raises(ProfileExistenceError, match="Clow"):
            StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)

    def test_cooperative_needs_cooperative_mode(self):
        with pytest.raises(GameError, match="cooperative"):
            StrategyProfile(ProfileMode.COOPERATIVE_INEFFICIENT, make())
        coop = make(elimination_mode=EliminationMode.COOPERATIVE)
        profile = StrategyProfile(ProfileMode.COOPERATIVE_INEFFICIENT, coop)
        assert profile.prescribed_votes(1, True) == (False, True)
        assert profile.prescribed_votes(2, True) == (True, True)

    def test_cutoff_with_barrier_past_the_shift(self):
        # off path: the barrier still stands at t = 3, a kept barrier the
        # profile never prescribes, so war follows whatever is offered; the
        # offer clamps to y
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE,
                                  make(c_D=25.0))
        assert profile.acceptance_cutoff(3, True) == math.inf
        assert profile.offer(3, 0.7, True) == 0.7
        assert not profile.accepts(3, 0.7, True, 0.7)

    @pytest.mark.parametrize("params,mode", [
        (make(c_D=35.0), ProfileMode.EFFICIENT_PEACE),
        (make(), ProfileMode.INEFFICIENT_PEACE),
        (make(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.COOPERATIVE_INEFFICIENT),
    ], ids=lambda v: getattr(v, "value", ""))
    def test_off_path_nodes_reject_every_offer(self, params, mode):
        # on path the barrier stands after the elimination stage exactly
        # while t < elim_period; every other node is met with war
        profile = StrategyProfile(mode, params)
        off_path = 0
        for t in (1, 2, 3):
            for barrier_after in (True, False):
                cutoff = profile.acceptance_cutoff(t, barrier_after)
                if barrier_after == (t < profile.elim_period):
                    assert math.isfinite(cutoff)
                    continue
                off_path += 1
                y = params.h0 if barrier_after else 1.0
                assert cutoff == math.inf
                for offer in (0.0, y, 1e300):
                    assert not profile.accepts(t, y, barrier_after, offer)
        assert off_path == 3

    def test_custom_profile_errors(self):
        # a custom profile lacking a callback is refused where it is built
        def offer(t, y, b):
            return 0.0

        def accept(t, y, b, o):
            return True

        with pytest.raises(GameError, match="lacks an offer callback"):
            StrategyProfile(mode=ProfileMode.CUSTOM, params=make(),
                            custom_accept=accept)
        with pytest.raises(GameError, match="lacks an accept callback"):
            StrategyProfile(mode=ProfileMode.CUSTOM, params=make(),
                            custom_offer=offer)
        profile = StrategyProfile(mode=ProfileMode.CUSTOM, params=make(),
                                  custom_offer=offer, custom_accept=accept)
        with pytest.raises(GameError, match="prescribe via callbacks"):
            profile.prescribed_votes(1, True)

    def test_one_threshold_record_per_profile(self, monkeypatch):
        # a built-in profile computes its params' thresholds once: building
        # it, simulating it and every offer and cutoff read that record
        from barriergame.thresholds import compute_thresholds
        calls = []

        def counted(params):
            calls.append(params)
            return compute_thresholds(params)

        monkeypatch.setattr(engine, "compute_thresholds", counted)
        params = make(c_D=25.0)
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        assert profile.thresholds == compute_thresholds(params)
        assert_close(profile.offer(1, 0.6, True), 0.26)
        simulate(profile, params, DIST, horizon=50, n_runs=2)
        assert calls == [params]
        analytic_payoffs(params, ProfileMode.INEFFICIENT_PEACE)
        assert calls == [params, params]


def raw_payoffs(params, mode):
    """(proposer, responder) values of the raw indifference bookkeeping:
    the unclamped offers of ``compute_thresholds``, which peg the responder
    at its war value even where that takes a negative offer."""
    ts = compute_thresholds(params)
    delta = params.delta
    if mode is ProfileMode.EFFICIENT_PEACE:
        y1, x1 = 1.0, ts.offer1_efficient
    else:
        y1, x1 = params.h0, ts.offer1_inefficient
    xs = ts.offer_stationary
    return ((y1 - x1) + delta * (1.0 - xs) / (1.0 - delta),
            x1 + delta * xs / (1.0 - delta))


class TestAnalyticPayoffs:
    def test_raw_values_demo(self):
        v_r, v_d = raw_payoffs(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        assert_close(v_r, 0.6 * 0.3 + 9.0 * (1.0 - 0.56) + 25.0, 1e-9)
        assert_close(v_d, 0.7 * 0.6 + 9.0 * 0.7 * 0.8 - 25.0, 1e-9)

    def test_raw_responder_at_war_value(self):
        params = make(c_D=25.0)
        _, v_d = raw_payoffs(params, ProfileMode.INEFFICIENT_PEACE)
        war_d = war_lottery(params, 1, True, params.h0,
                            effective_mu(params))[1] - params.c_D
        assert_close(v_d, war_d, 1e-9)

    @pytest.mark.parametrize("clamped", [True, False])
    def test_full_surplus_split(self, clamped):
        params = make(c_D=25.0)
        price = analytic_payoffs if clamped else raw_payoffs
        v_r, v_d = price(params, ProfileMode.INEFFICIENT_PEACE)
        total = params.h0 + params.delta / (1.0 - params.delta)
        assert_close(v_r + v_d, total, 1e-9)

    def test_refused_below_threshold(self):
        with pytest.raises(ProfileExistenceError):
            analytic_payoffs(make(c_D=20.0), ProfileMode.INEFFICIENT_PEACE)

    def test_invalid_params_refused(self):
        # p1 < p is no declining power, so there is no profile to price
        with pytest.raises(InvalidParamsError, match="p1 > p required"):
            analytic_payoffs(make(p1=0.1), ProfileMode.INEFFICIENT_PEACE)

    @pytest.mark.parametrize("params,mode", [
        (make(), ProfileMode.CUSTOM),
        (make(), ProfileMode.COOPERATIVE_INEFFICIENT),
        (make(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.INEFFICIENT_PEACE),
        (make(c_D=35.0, elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.EFFICIENT_PEACE),
    ])
    def test_mode_rules_as_equilibrium_profile(self, params, mode):
        # no price for a profile that cannot be built: the same GameError
        # text as StrategyProfile(mode, params)
        with pytest.raises(GameError) as built:
            StrategyProfile(mode, params)
        with pytest.raises(GameError) as priced:
            analytic_payoffs(params, mode)
        assert type(priced.value) is type(built.value) is GameError
        assert str(priced.value) == str(built.value)

    @pytest.mark.parametrize("params,mode,clamped,want", [
        (make(), ProfileMode.INEFFICIENT_PEACE, True,
         (9.340000000000002, 0.26000000000000023)),
        (make(), ProfileMode.INEFFICIENT_PEACE, False,
         (29.140000000000004, -19.54)),
        (make(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.COOPERATIVE_INEFFICIENT, True,
         (9.340000000000002, 0.26000000000000023)),
        (make(c_D=35.0), ProfileMode.EFFICIENT_PEACE, False, (38.0, -28.0)),
    ])
    def test_legal_modes_unchanged(self, params, mode, clamped, want):
        # the clamped rows are analytic_payoffs, the raw rows the unclamped
        # ThresholdSet offers priced the same way
        price = analytic_payoffs if clamped else raw_payoffs
        assert price(params, mode) == want


def always_war(params):
    return StrategyProfile(
        mode=ProfileMode.CUSTOM, params=params,
        custom_eliminate=lambda t, y, b: False,
        custom_offer=lambda t, y, b: 0.0,
        custom_accept=lambda t, y, b, o: False)


class TestSimulate:
    @pytest.mark.parametrize("params", [
        # demo-b, where the stationary offer clamps to 0
        make(c_D=25.0),
        # c_D = clow_D, where the period-1 offer rounds above h0 and clamps
        # to y
        make(c_D=compute_thresholds(make()).clow_D),
    ], ids=["demo-b", "clow-D"])
    def test_matches_analytic_degenerate(self, params):
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        stats = simulate(profile, params, DIST, horizon=400, n_runs=10, seed=0)
        v_r, v_d = analytic_payoffs(params, ProfileMode.INEFFICIENT_PEACE)
        tail = stats.tail_bound
        assert abs(stats.payoff_r_mean - v_r) <= 1e-6 + tail
        assert abs(stats.payoff_d_mean - v_d) <= 1e-6 + tail
        assert stats.war_frequency == 0.0
        assert stats.elimination_periods == {2: 1.0}

    def test_efficient_eliminates_immediately(self):
        params = make(c_D=35.0)
        profile = StrategyProfile(ProfileMode.EFFICIENT_PEACE, params)
        stats = simulate(profile, params, DIST, horizon=300, n_runs=5, seed=0)
        assert stats.elimination_periods == {1: 1.0}
        v_r, v_d = analytic_payoffs(params, ProfileMode.EFFICIENT_PEACE)
        assert abs(stats.payoff_r_mean - v_r) <= 1e-6
        assert abs(stats.payoff_d_mean - v_d) <= 1e-6

    def test_distribution_choice_does_not_move_onpath_payoffs(self):
        params = make(c_D=25.0)
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        results = []
        for dist in (BarrierDistribution.degenerate(0.8),
                     BarrierDistribution.uniform_with_mean(0.8, 0.3),
                     BarrierDistribution.scaled_beta_with_mean(0.8)):
            stats = simulate(profile, params, dist, horizon=200, n_runs=100,
                             seed=3)
            results.append((stats.payoff_r_mean, stats.payoff_d_mean))
        assert results[0] == results[1] == results[2]

    def test_trace_records_conservation(self):
        params = make(c_D=25.0)
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        buf = io.StringIO()
        simulate(profile, params, DIST, horizon=50, n_runs=1, seed=0, trace=buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(records) == 50
        assert records[0]["period"] == 1 and records[0]["y"] == 0.6
        assert_close(records[0]["offer"], 0.26)
        for rec in records:
            assert rec["flow_r"] + rec["flow_d"] == rec["y"]

    def test_always_reject_forces_war(self):
        params = make()
        profile = always_war(params)
        stats = simulate(profile, params, DIST, horizon=150, n_runs=4000,
                         seed=5)
        assert stats.war_frequency == 1.0
        gross_r, gross_d = war_lottery(params, 1, True, params.h0,
                                       effective_mu(params))
        war_r, war_d = gross_r - params.c_R, gross_d - params.c_D
        assert abs(stats.payoff_d_mean - war_d) <= 3.0 * stats.payoff_d_se + stats.tail_bound
        assert abs(stats.payoff_r_mean - war_r) <= 3.0 * stats.payoff_r_se + stats.tail_bound

    def test_war_payoff_distribution_invariance(self):
        params = make()
        estimates = []
        for dist in (BarrierDistribution.uniform_with_mean(0.8, 0.3),
                     BarrierDistribution.scaled_beta_with_mean(0.8)):
            profile = always_war(params)
            stats = simulate(profile, params, dist, horizon=150, n_runs=4000,
                             seed=6)
            estimates.append((stats.payoff_d_mean, stats.payoff_d_se))
        diff = abs(estimates[0][0] - estimates[1][0])
        combined_se = math.hypot(estimates[0][1], estimates[1][1])
        assert diff <= 3.0 * combined_se

    def test_postwar_renormalization(self):
        # with rho = 1 the postwar market is the full resource every period
        params = make(rho=1.0)
        profile = always_war(params)
        horizon = 200
        stats = simulate(profile, params, DIST, horizon=horizon, n_runs=3000,
                         seed=7)
        d = params.delta
        spoils = params.h0 + d * (1.0 - d ** (horizon - 1)) / (1.0 - d)
        expected_d = params.p1 * spoils - params.c_D
        assert abs(stats.payoff_d_mean - expected_d) <= 3.0 * stats.payoff_d_se

    def test_partial_renormalization_matches_war_value(self):
        # interior rho: simulated war spoils price the renormalization
        # recursion behind the effective postwar market mean
        params = make(rho=0.5)
        profile = always_war(params)
        stats = simulate(profile, params, DIST, horizon=250, n_runs=6000,
                         seed=8)
        gross_r, gross_d = war_lottery(params, 1, True, params.h0,
                                       effective_mu(params))
        war_r, war_d = gross_r - params.c_R, gross_d - params.c_D
        assert abs(stats.payoff_d_mean - war_d) <= \
            3.0 * stats.payoff_d_se + stats.tail_bound
        assert abs(stats.payoff_r_mean - war_r) <= \
            3.0 * stats.payoff_r_se + stats.tail_bound

    def test_custom_keep_barrier_flows(self):
        params = make(c_D=25.0)
        profile = StrategyProfile(
            mode=ProfileMode.CUSTOM, params=params,
            custom_eliminate=lambda t, y, b: t >= 4,
            custom_offer=lambda t, y, b: 0.37 * y,
            custom_accept=lambda t, y, b, o: True)
        buf = io.StringIO()
        dist = BarrierDistribution.uniform_with_mean(0.8, 0.3)
        stats = simulate(profile, params, dist, horizon=40, n_runs=30, seed=9,
                         trace=buf)
        assert stats.war_frequency == 0.0
        assert stats.elimination_periods == {4: 1.0}
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(records) == 40 * 30
        for rec in records:
            assert rec["flow_r"] + rec["flow_d"] == rec["y"]
            if rec["period"] >= 4:
                assert rec["y"] == 1.0

    def test_custom_cooperative_votes(self):
        # under joint consent the barrier falls only once the responder's
        # callback agrees too; without one it never falls
        params = make(c_D=25.0, elimination_mode=EliminationMode.COOPERATIVE)
        votes = dict(custom_eliminate=lambda t, y, b: t >= 2,
                     custom_offer=lambda t, y, b: 0.5 * y,
                     custom_accept=lambda t, y, b, o: True)
        both = StrategyProfile(mode=ProfileMode.CUSTOM, params=params,
                               custom_eliminate_d=lambda t, y, b: t >= 4,
                               **votes)
        buf = io.StringIO()
        stats = simulate(both, params, DIST, horizon=6, n_runs=2, seed=3,
                         trace=buf)
        assert stats.elimination_periods == {4: 1.0}
        # one record per period of each run, runs in order
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [(r["run"], r["period"]) for r in records] == [
            (run, t) for run in (0, 1) for t in range(1, 7)]
        # the responder votes only while the barrier stands
        assert [r["elim_d"] for r in records] == 2 * [False, False, False,
                                                      True, None, None]
        assert [r["y"] for r in records] == 2 * [0.6, 0.8, 0.8, 1.0, 1.0, 1.0]
        alone = StrategyProfile(mode=ProfileMode.CUSTOM, params=params, **votes)
        stats = simulate(alone, params, DIST, horizon=6, n_runs=2, seed=3)
        assert stats.elimination_periods == {None: 1.0}

    def test_unilateral_refuses_responder_callback(self):
        # under unilateral elimination the responder casts no vote: a custom
        # responder callback is refused where the profile is built, with the
        # text the elimination stage uses, rather than never called
        params = make(c_D=25.0)
        calls = []
        callbacks = dict(
            custom_eliminate=lambda t, y, b: t >= 2,
            custom_eliminate_d=lambda t, y, b: calls.append(t) or True,
            custom_offer=lambda t, y, b: 0.5 * y,
            custom_accept=lambda t, y, b, o: calls.append(t) or True)
        with pytest.raises(GameError, match="unilateral mode forbids elim_d"):
            StrategyProfile(mode=ProfileMode.CUSTOM, params=params,
                            **callbacks)
        coop = StrategyProfile(
            mode=ProfileMode.CUSTOM,
            params=params._replace(elimination_mode=EliminationMode.COOPERATIVE),
            **callbacks)
        with pytest.raises(GameError, match="unilateral mode forbids elim_d"):
            coop._replace(params=params)
        assert calls == []

    @pytest.mark.parametrize("offer", [5.0, -0.1, math.nan])
    def test_custom_offer_outside_range_refused(self, offer):
        # step is the one check of a legal offer: a custom offer outside
        # [0, y] is refused, not moved into range (demo-b: y = h0 = 0.6)
        params = make(c_D=25.0)
        profile = StrategyProfile(
            mode=ProfileMode.CUSTOM, params=params,
            custom_offer=lambda t, y, b: offer,
            custom_accept=lambda t, y, b, o: True)
        with pytest.raises(GameError, match=re.escape("outside [0, 0.6]")):
            simulate(profile, params, DIST, horizon=5, n_runs=2, seed=0)

    def test_war_period_traced(self):
        params = make(c_D=25.0)
        buf = io.StringIO()
        stats = simulate(always_war(params), params, DIST, horizon=20,
                         n_runs=3, seed=5, trace=buf)
        assert stats.war_frequency == 1.0
        # one war record per run, runs in order
        assert [json.loads(line) for line in buf.getvalue().splitlines()] == [{
            "run": run, "period": 1, "y": 0.6, "elim_r": False, "elim_d": None,
            "offer": 0.0, "response": "Reject", "flow_r": 0.0, "flow_d": 0.0,
            "war": True} for run in range(3)]

    def test_profile_params_must_match(self):
        # every profile, built-in or custom, is played under the params it
        # was built for
        for profile in (StrategyProfile(ProfileMode.INEFFICIENT_PEACE,
                                        make(c_D=25.0)),
                        always_war(make(c_D=25.0))):
            with pytest.raises(GameError, match="built for"):
                simulate(profile, make(c_D=26.0), DIST, horizon=10, n_runs=1)

    @pytest.mark.parametrize("params,mode", [
        (make(c_D=35.0, elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.EFFICIENT_PEACE),
        (make(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.INEFFICIENT_PEACE),
        (make(), ProfileMode.COOPERATIVE_INEFFICIENT),
        (make(c_D=20.0), ProfileMode.INEFFICIENT_PEACE),
        (make(c_D=25.0), ProfileMode.EFFICIENT_PEACE),
        (make(p1=0.1), ProfileMode.INEFFICIENT_PEACE),
    ])
    def test_refuses_what_equilibrium_profile_refuses(self, params, mode):
        # a built-in profile that cannot be played is refused where it is
        # built, so simulate never gets it, and gets no price, with the same
        # error type and text: under joint consent the efficient profile's
        # barrier would never fall
        refusals = (GameError, InvalidParamsError)
        with pytest.raises(refusals) as built:
            StrategyProfile(mode, params)
        with pytest.raises(refusals) as priced:
            analytic_payoffs(params, mode)
        assert type(priced.value) is type(built.value)
        assert str(priced.value) == str(built.value)

    def test_bad_sizes(self):
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE,
                                  make(c_D=25.0))
        with pytest.raises(ValueError):
            simulate(profile, make(c_D=25.0), DIST, horizon=0, n_runs=1)


class TestWarContinuation:
    @staticmethod
    def continuation(params, dist, barrier_at_war, n, rng):
        discounts = params.delta ** np.arange(1, n + 1)
        return _war_continuation(params, dist, barrier_at_war, n, rng,
                                 discounts)

    @pytest.mark.parametrize("n", [1, 7, 149])
    def test_degenerate_without_renormalization(self, n):
        params = make()
        d, mu = params.delta, params.mu
        got = self.continuation(params, BarrierDistribution.degenerate(mu),
                                True, n, np.random.default_rng(0))
        assert abs(got - d * mu * (1.0 - d ** n) / (1.0 - d)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 7, 149])
    def test_certain_renormalization_is_full_resource(self, n):
        # rng.random() < 1 always, so the first coin lands
        params = make(rho=1.0)
        d = params.delta
        got = self.continuation(params,
                                BarrierDistribution.uniform_with_mean(0.8, 0.3),
                                True, n, np.random.default_rng(1))
        assert abs(got - d * (1.0 - d ** n) / (1.0 - d)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_period_reference(self, seed):
        # the per-period law on the same draws: the flow is 1 from the first
        # period whose coin lands, that period included, and a draw before it
        params = make(rho=0.1)
        dist = BarrierDistribution.uniform_with_mean(0.8, 0.3)
        n = 60
        ref_rng = np.random.default_rng(seed)
        draws = dist.sample(ref_rng, n)
        coins = ref_rng.random(n)
        want, disc, renormalized = 0.0, params.delta, False
        for h, coin in zip(draws, coins):
            renormalized = renormalized or coin < params.rho
            want += disc * (1.0 if renormalized else h)
            disc *= params.delta
        got = self.continuation(params, dist, True, n,
                                np.random.default_rng(seed))
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("barrier_at_war", [True, False])
    def test_no_periods_left(self, barrier_at_war):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        assert self.continuation(make(rho=0.5), DIST, barrier_at_war, 0,
                                 rng) == 0.0
        assert rng.bit_generator.state == before

    def test_barrier_gone_is_closed_form(self):
        params = make(rho=0.5)
        d = params.delta
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        got = self.continuation(params,
                                BarrierDistribution.uniform_with_mean(0.8, 0.3),
                                False, 40, rng)
        assert got == d * (1.0 - d ** 40) / (1.0 - d)
        assert rng.bit_generator.state == before

    def test_seeded_war_runs_reproduce(self):
        params = make(rho=0.3)
        dist = BarrierDistribution.scaled_beta_with_mean(0.8)
        runs = [simulate(always_war(params), params, dist, horizon=60,
                         n_runs=50, seed=seed) for seed in (11, 11, 12)]
        assert runs[0] == runs[1]
        assert runs[0].payoff_r_mean != runs[2].payoff_r_mean
        assert runs[0].payoff_d_mean != runs[2].payoff_d_mean


class TestPeaceStreams:
    """Peace runs draw one barrier value per standing period through
    ``step``; their seeded results and trace bytes are pinned."""

    PINNED = {
        "Uniform": ({
            "n_runs": 25, "horizon": 30,
            "payoff_r_mean": 5.4398733571123,
            "payoff_r_se": 0.016621109103242084,
            "payoff_d_mean": 3.1948462573516685,
            "payoff_d_se": 0.009761603759046958,
            "war_frequency": 0.0, "elimination_periods": {"5": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "fc908532f8b8d1c0bdc0f23ffcc30cf79034d12cd85585c27be574e586c19cc9"),
        "ScaledBeta": ({
            "n_runs": 25, "horizon": 30,
            "payoff_r_mean": 5.464608029726838,
            "payoff_r_se": 0.01941111822520932,
            "payoff_d_mean": 3.2093729698395714,
            "payoff_d_se": 0.011400180544964247,
            "war_frequency": 0.0, "elimination_periods": {"5": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "59255bb6888090969680fc84be2db73b54daac9fb60cfad63c35292ef7e86e06"),
    }

    @pytest.mark.parametrize("dist", [
        BarrierDistribution.uniform_with_mean(0.8, 0.3),
        BarrierDistribution.scaled_beta_with_mean(0.8)],
        ids=lambda dist: dist.kind.value)
    def test_keep_barrier_stream_pinned(self, dist):
        params = make(c_D=25.0)
        profile = StrategyProfile(
            mode=ProfileMode.CUSTOM, params=params,
            custom_eliminate=lambda t, y, b: t >= 5,
            custom_offer=lambda t, y, b: 0.37 * y,
            custom_accept=lambda t, y, b, o: True)
        buf = io.StringIO()
        stats = simulate(profile, params, dist, horizon=30, n_runs=25,
                         seed=2024, trace=buf)
        want_stats, want_sha = self.PINNED[dist.kind.value]
        assert cli._plain(stats) == want_stats
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want_sha


class TestWarStreams:
    """Always-war runs draw the war winner through ``step`` and then the
    whole postwar path, renormalization coins included; their seeded
    results and trace bytes are pinned.  Every run ends in period 1 before
    any barrier draw, so both draws write the same trace."""

    TRACE_SHA = "db0fc0b09f3c78730743929eed4d5eb30f1eca25707068fbf72db04cb662724e"
    PINNED = {
        "Uniform": {
            "n_runs": 25, "horizon": 40,
            "payoff_r_mean": 1.2270921138856246,
            "payoff_r_se": 0.8091129144461154,
            "payoff_d_mean": -18.14650524001865,
            "payoff_d_se": 0.7890104502796214,
            "war_frequency": 1.0, "elimination_periods": {"None": 1.0},
            "tail_bound": 0.14780882941434612,
        },
        "ScaledBeta": {
            "n_runs": 25, "horizon": 40,
            "payoff_r_mean": 1.1896847632354481,
            "payoff_r_se": 0.795904087447836,
            "payoff_d_mean": -18.11074968086625,
            "payoff_d_se": 0.794073944396003,
            "war_frequency": 1.0, "elimination_periods": {"None": 1.0},
            "tail_bound": 0.14780882941434612,
        },
    }

    @pytest.mark.parametrize("dist", [
        BarrierDistribution.uniform_with_mean(0.8, 0.3),
        BarrierDistribution.scaled_beta_with_mean(0.8)],
        ids=lambda dist: dist.kind.value)
    def test_always_war_stream_pinned(self, dist):
        params = make(rho=0.3)
        buf = io.StringIO()
        stats = simulate(always_war(params), params, dist, horizon=40,
                         n_runs=25, seed=2024, trace=buf)
        assert cli._plain(stats) == self.PINNED[dist.kind.value]
        assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
                == self.TRACE_SHA)


class TestTraceTypes:
    """Callbacks may return numpy scalars: the trace writes each vote as a
    bool or null and the offer and flows as floats, so every line is JSON,
    and tracing a run does not change its play."""

    @pytest.mark.parametrize("cooperative,callbacks", [
        (False, dict(custom_eliminate=lambda t, y, b: np.int64(t) >= 2,
                     custom_offer=lambda t, y, b: 0.4 * y)),
        (False, dict(custom_offer=lambda t, y, b: np.float32(0.4 * y))),
        (True, dict(custom_eliminate=lambda t, y, b: np.int64(t) >= 2,
                    custom_eliminate_d=lambda t, y, b: np.int64(t) >= 3,
                    custom_offer=lambda t, y, b: np.float32(0.4 * y))),
    ], ids=["numpy-bool-vote", "float32-offer", "joint-numpy"])
    def test_numpy_scalars_traced(self, cooperative, callbacks):
        mode = (EliminationMode.COOPERATIVE if cooperative
                else EliminationMode.UNILATERAL)
        params = make(c_D=25.0, elimination_mode=mode)
        profile = StrategyProfile(
            mode=ProfileMode.CUSTOM, params=params,
            custom_accept=lambda t, y, b, o: True, **callbacks)
        dist = BarrierDistribution.uniform_with_mean(0.8, 0.3)
        buf = io.StringIO()
        traced = simulate(profile, params, dist, horizon=6, n_runs=3, seed=4,
                          trace=buf)
        assert traced == simulate(profile, params, dist, horizon=6,
                                  n_runs=3, seed=4)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 18
        for line in lines:
            rec = json.loads(line)
            assert type(rec["elim_r"]) is bool
            assert rec["elim_d"] is None or type(rec["elim_d"]) is bool
            for key in ("y", "offer", "flow_r", "flow_d"):
                assert type(rec[key]) is float, key


class TestCustomStreams:
    """Two more custom paths, pinned: joint consent with a responder
    elimination callback, and war after the barrier has fallen (so the war
    continuation is the barrier-gone closed form, whatever rho)."""

    PINNED = {
        ("joint", "Uniform"): ({
            "n_runs": 25, "horizon": 30,
            "payoff_r_mean": 4.835468971191897,
            "payoff_r_se": 0.011038344251451601,
            "payoff_d_mean": 3.956292794611551,
            "payoff_d_se": 0.009031372569369504,
            "war_frequency": 0.0, "elimination_periods": {"4": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "cb17397859b49d091310634a133cdabc8646850d590f1b99505ae2bded3e6564"),
        ("joint", "ScaledBeta"): ({
            "n_runs": 25, "horizon": 30,
            "payoff_r_mean": 4.856468348235251,
            "payoff_r_se": 0.014148113589251578,
            "payoff_d_mean": 3.9734741031015677,
            "payoff_d_se": 0.011575729300296735,
            "war_frequency": 0.0, "elimination_periods": {"4": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "fe23bcc9968343ec980a27501e1a8a1bdaef5705e9dfd0f19b81d9ea1852aef4"),
        ("late_war", "Uniform"): ({
            "n_runs": 25, "horizon": 30,
            "payoff_r_mean": 4.650905204602656,
            "payoff_r_se": 0.6876287899975553,
            "payoff_d_mean": -14.638396530264897,
            "payoff_d_se": 0.6860162894949331,
            "war_frequency": 1.0, "elimination_periods": {"3": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "adc17ae198df382048edb6a0ff6981bcd22f50fc210438e33a88bb3e0f1fe707"),
        ("late_war", "ScaledBeta"): ({
            "n_runs": 25, "horizon": 30,
            "payoff_r_mean": 4.931442315848074,
            "payoff_r_se": 0.6731549503409521,
            "payoff_d_mean": -14.909111017251144,
            "payoff_d_se": 0.6725509897287372,
            "war_frequency": 1.0, "elimination_periods": {"3": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "9ab48cb59c33823f1f62591c49a330d6ae4a23e6f5a0be2a3a6316731e5f9a96"),
    }

    @staticmethod
    def profile(name):
        if name == "joint":
            params = make(c_D=25.0,
                          elimination_mode=EliminationMode.COOPERATIVE)
            return params, StrategyProfile(
                mode=ProfileMode.CUSTOM, params=params,
                custom_eliminate=lambda t, y, b: t >= 2,
                custom_eliminate_d=lambda t, y, b: t >= 4,
                custom_offer=lambda t, y, b: 0.45 * y,
                custom_accept=lambda t, y, b, o: True)
        params = make(rho=0.3)
        return params, StrategyProfile(
            mode=ProfileMode.CUSTOM, params=params,
            custom_eliminate=lambda t, y, b: t >= 3,
            custom_offer=lambda t, y, b: 0.4 * y,
            custom_accept=lambda t, y, b, o: t < 4)

    @pytest.mark.parametrize("dist", [
        BarrierDistribution.uniform_with_mean(0.8, 0.3),
        BarrierDistribution.scaled_beta_with_mean(0.8)],
        ids=lambda dist: dist.kind.value)
    @pytest.mark.parametrize("name", ["joint", "late_war"])
    def test_custom_stream_pinned(self, name, dist):
        params, profile = self.profile(name)
        buf = io.StringIO()
        stats = simulate(profile, params, dist, horizon=30, n_runs=25,
                         seed=2024, trace=buf)
        want_stats, want_sha = self.PINNED[name, dist.kind.value]
        assert cli._plain(stats) == want_stats
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want_sha


class TestCallContract:
    """A custom run calls ``step`` once per period it plays and each
    callback where the stage game asks for it: the count the benchmark's
    traced coverage check (``engine.step.calls`` equals the run-periods)
    relies on."""

    @staticmethod
    def counted(calls, name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def play(self, monkeypatch, callbacks, runs, horizon):
        calls = dict.fromkeys(["step", *callbacks], 0)
        monkeypatch.setattr(engine, "step",
                            self.counted(calls, "step", engine.step))
        params = make(c_D=25.0)
        profile = StrategyProfile(ProfileMode.CUSTOM, params, **{
            f"custom_{name}": self.counted(calls, name, fn)
            for name, fn in callbacks.items()})
        dist = BarrierDistribution.uniform_with_mean(0.8, 0.3)
        stats = simulate(profile, params, dist, horizon=horizon,
                         n_runs=runs, seed=7)
        return stats, calls

    def test_peace_profile(self, monkeypatch):
        # the benchmark's peace profile: the barrier falls in period 3
        runs, horizon = 7, 20
        stats, calls = self.play(monkeypatch, {
            "eliminate": lambda t, y, b: t >= 3,
            "offer": lambda t, y, b: 0.4 * y,
            "accept": lambda t, y, b, o: True}, runs, horizon)
        assert stats.war_frequency == 0.0
        assert stats.elimination_periods == {3: 1.0}
        assert calls == {"step": runs * horizon, "eliminate": 3 * runs,
                         "offer": runs * horizon, "accept": runs * horizon}

    def test_always_war(self, monkeypatch):
        runs = 9
        stats, calls = self.play(monkeypatch, {
            "offer": lambda t, y, b: 0.0,
            "accept": lambda t, y, b, o: False}, runs, horizon=20)
        assert stats.war_frequency == 1.0
        assert calls == {"step": runs, "offer": runs, "accept": runs}

    @pytest.mark.parametrize("params,mode", [
        (make(c_D=35.0), ProfileMode.EFFICIENT_PEACE),
        (make(), ProfileMode.INEFFICIENT_PEACE),
        (make(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.COOPERATIVE_INEFFICIENT),
    ], ids=["efficient", "inefficient", "cooperative"])
    def test_builtin_profile_steps_nothing(self, monkeypatch, params, mode):
        # the benchmark counts no run-periods for a built-in run, so the
        # check above holds only if it steps no period, prices no war and
        # draws no barrier value
        calls = dict.fromkeys(["step", "_war_continuation", "sample"], 0)
        for owner, name in ((engine, "step"), (engine, "_war_continuation"),
                            (BarrierDistribution, "sample")):
            monkeypatch.setattr(owner, name, self.counted(
                calls, name, getattr(owner, name)))
        stats = simulate(StrategyProfile(mode, params), params,
                         BarrierDistribution.uniform_with_mean(0.8, 0.3),
                         horizon=400, n_runs=7, seed=7)
        assert (stats.n_runs, stats.horizon) == (7, 400)
        assert calls == {"step": 0, "_war_continuation": 0, "sample": 0}


class TestOnPathStreams:
    """Built-in profiles play their own prescribed votes and offers on the
    deterministic on-path run; its stats and trace bytes are pinned, at
    demo-b and at a point whose period-1 and stationary offers lie strictly
    inside (0, y)."""

    INTERIOR = dict(delta=0.5, p=0.2, p1=0.5, h0=0.7, c_D=0.2)

    PINNED = {
        "demo-b-efficient": ({
            "n_runs": 7, "horizon": 30,
            "payoff_r_mean": 8.776088417247836,
            "payoff_r_se": 0.0,
            "payoff_d_mean": 0.8000000000000016,
            "payoff_d_se": 0.0,
            "war_frequency": 0.0, "elimination_periods": {"1": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "58ea296f7dfef44ee46dda4718cafbde39fae6389b8d5fc83a3682ad9965311d"),
        "demo-b-inefficient": ({
            "n_runs": 7, "horizon": 30,
            "payoff_r_mean": 8.916088417247838,
            "payoff_r_se": 0.0,
            "payoff_d_mean": 0.26000000000000023,
            "payoff_d_se": 0.0,
            "war_frequency": 0.0, "elimination_periods": {"2": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "f69f7122cb0b25d9e1422e4686e3ea6a0c31ff632bc0107c230bc539dced03f9"),
        "demo-b-cooperative": ({
            "n_runs": 7, "horizon": 30,
            "payoff_r_mean": 8.916088417247838,
            "payoff_r_se": 0.0,
            "payoff_d_mean": 0.26000000000000023,
            "payoff_d_se": 0.0,
            "war_frequency": 0.0, "elimination_periods": {"2": 1.0},
            "tail_bound": 0.42391158275216245,
        }, "d8d0ca0ee009abcac4f16ac0112695fa044cba6e0e0aaa3fc6ec995d67cf25b4"),
        "interior-efficient": ({
            "n_runs": 7, "horizon": 30,
            "payoff_r_mean": 1.1999999983236191,
            "payoff_r_se": 0.0,
            "payoff_d_mean": 0.7999999998137355,
            "payoff_d_se": 0.0,
            "war_frequency": 0.0, "elimination_periods": {"1": 1.0},
            "tail_bound": 1.862645149230957e-09,
        }, "8b8ec7904a4dc1999ffe0093d0b9b53267c99c9bb8935d8f00f929b71cd20e4f"),
        "interior-inefficient": ({
            "n_runs": 7, "horizon": 30,
            "payoff_r_mean": 1.149999998323619,
            "payoff_r_se": 0.0,
            "payoff_d_mean": 0.5499999998137354,
            "payoff_d_se": 0.0,
            "war_frequency": 0.0, "elimination_periods": {"2": 1.0},
            "tail_bound": 1.862645149230957e-09,
        }, "1d2c700f8c80e7236c402293ed26fb70824f42e10246e5bbb3a336967c7c3a83"),
        "interior-cooperative": ({
            "n_runs": 7, "horizon": 30,
            "payoff_r_mean": 1.149999998323619,
            "payoff_r_se": 0.0,
            "payoff_d_mean": 0.5499999998137354,
            "payoff_d_se": 0.0,
            "war_frequency": 0.0, "elimination_periods": {"2": 1.0},
            "tail_bound": 1.862645149230957e-09,
        }, "2707f94df653d9c25c4d11096e24d67402d62450fc3b095dd307d30c6abac0aa"),
    }

    CASES = {
        "demo-b-efficient": (make(c_D=35.0), ProfileMode.EFFICIENT_PEACE),
        "demo-b-inefficient": (make(), ProfileMode.INEFFICIENT_PEACE),
        "demo-b-cooperative": (
            make(elimination_mode=EliminationMode.COOPERATIVE),
            ProfileMode.COOPERATIVE_INEFFICIENT),
        "interior-efficient": (make(**INTERIOR), ProfileMode.EFFICIENT_PEACE),
        "interior-inefficient": (make(**INTERIOR),
                                 ProfileMode.INEFFICIENT_PEACE),
        "interior-cooperative": (
            make(**INTERIOR, elimination_mode=EliminationMode.COOPERATIVE),
            ProfileMode.COOPERATIVE_INEFFICIENT),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_onpath_stream_pinned(self, name):
        params, mode = self.CASES[name]
        profile = StrategyProfile(mode, params)
        buf = io.StringIO()
        stats = simulate(profile, params, DIST, horizon=30, n_runs=7, seed=5,
                         trace=buf)
        want_stats, want_sha = self.PINNED[name]
        assert cli._plain(stats) == want_stats
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want_sha


def played_every_period(profile, params, horizon, n_runs, trace):
    """Reference on-path run that plays the profile in every period:
    prescribed votes, offer and flow split at each t, discounted flow added
    period by period, and the elimination period read off the votes (None
    when the barrier still stands at the horizon)."""
    delta = params.delta
    v_r = v_d = 0.0
    elim_period = 1 if profile.mode is ProfileMode.EFFICIENT_PEACE else 2
    eliminated_in = None
    for t in range(1, horizon + 1):
        barrier_before = t <= elim_period
        vote_r, vote_d = profile.prescribed_votes(t, barrier_before)
        eliminated_now = barrier_before and (
            (vote_r and vote_d)
            if params.elimination_mode is EliminationMode.COOPERATIVE
            else vote_r)
        barrier_after = barrier_before and not eliminated_now
        if eliminated_now and eliminated_in is None:
            eliminated_in = t
        y = params.h0 if (t == 1 and barrier_after) else 1.0
        offer = profile.offer(t, y, barrier_after)
        flow_r, flow_d = engine._split_flows(y, offer)
        disc = delta ** (t - 1)
        v_r += disc * flow_r
        v_d += disc * flow_d
        actions = ActionRecord(elim_r=vote_r, offer=offer,
                               response=Response.ACCEPT, elim_d=vote_d)
        trace.write(json.dumps(engine._trace_record(
            0, t, y, actions, flow_r, flow_d, False)) + "\n")
    return {"n_runs": n_runs, "horizon": horizon,
            "payoff_r_mean": v_r, "payoff_r_se": 0.0,
            "payoff_d_mean": v_d, "payoff_d_se": 0.0,
            "war_frequency": 0.0,
            "elimination_periods": {str(eliminated_in): 1.0},
            "tail_bound": delta ** horizon * 1.0 / (1.0 - delta)}


def existing_point(rng, mode):
    """A sampled valid point at which the built-in profile of ``mode``
    exists: c_D (and for the barrier-keeping modes c_R) lifted 0.1 to 5
    above the existence thresholds."""
    q = random_valid_params(rng)
    ts = compute_thresholds(q)
    if mode is ProfileMode.EFFICIENT_PEACE:
        return q.with_overrides(c_D=max(ts.cbar_D, 0.0) + rng.uniform(0.1, 5.0),
                                c_R=rng.uniform(0.0, 10.0))
    c_d = max(ts.clow_D, 0.0) + rng.uniform(0.1, 5.0)
    q = q.with_overrides(c_D=c_d, c_R=max(ts.Clow - c_d, 0.0)
                         + rng.uniform(0.1, 5.0))
    if mode is ProfileMode.COOPERATIVE_INEFFICIENT:
        q = q.with_overrides(elimination_mode=EliminationMode.COOPERATIVE)
    return q


def first_interior_draws(seed):
    """name -> (params, mode, draws): for each built-in mode in turn, the
    first ``existing_point`` draw from one generator at which every raw
    offer of ``compute_thresholds`` lies strictly inside (0, y), so the
    period-1 cutoff is positive and the played game is the priced one,
    with the number of draws it took."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, mode in (("efficient", ProfileMode.EFFICIENT_PEACE),
                       ("inefficient", ProfileMode.INEFFICIENT_PEACE),
                       ("cooperative", ProfileMode.COOPERATIVE_INEFFICIENT)):
        draws = 0
        while True:
            draws += 1
            q = existing_point(rng, mode)
            ts = compute_thresholds(q)
            if (0.0 < ts.offer1_efficient < 1.0
                    and 0.0 < ts.offer1_inefficient < q.h0
                    and 0.0 < ts.offer_stationary < 1.0):
                break
        out[f"sampled-{name}"] = (q, mode, draws)
    return out


class TestOnPathReference:
    """The on-path run evaluates the profile only until play turns
    stationary; its stats and trace bytes equal those of a run that plays
    the profile in every period."""

    MODES = (ProfileMode.EFFICIENT_PEACE, ProfileMode.INEFFICIENT_PEACE,
             ProfileMode.COOPERATIVE_INEFFICIENT)
    HORIZONS = (1, 2, 3, 4, 400)

    def test_matches_every_period_reference(self):
        rng = np.random.default_rng(20261018)
        cases = [(existing_point(rng, mode), mode)
                 for mode in self.MODES for _ in range(67)]
        # demo-b: the stationary offer p - (1 - delta) c_D is negative and
        # clamps to 0.  It cannot clamp to y = 1 at a valid point (it is at
        # most p < p1 <= 1), so the upper clamp is taken where it can
        # happen: at c_D = clow_D the period-1 offer rounds above h0 and
        # clamps to y.
        low = make()
        assert compute_thresholds(low).offer_stationary < 0.0
        high = make(c_D=compute_thresholds(make()).clow_D)
        assert compute_thresholds(high).offer1_inefficient > high.h0
        cases += [(low, ProfileMode.INEFFICIENT_PEACE),
                  (high, ProfileMode.INEFFICIENT_PEACE)]
        for params, mode in cases:
            profile = StrategyProfile(mode, params)
            dist = BarrierDistribution.degenerate(params.mu)
            for horizon in self.HORIZONS:
                got, want = io.StringIO(), io.StringIO()
                stats = simulate(profile, params, dist, horizon, n_runs=3,
                                 seed=1, trace=got)
                ref = played_every_period(profile, params, horizon, 3, want)
                assert repr(cli._plain(stats)) == repr(ref), (params, mode,
                                                              horizon)
                assert got.getvalue() == want.getvalue(), (params, mode,
                                                           horizon)

    @pytest.mark.parametrize("name", ["demo-b-efficient", "demo-b-inefficient",
                                      "demo-b-cooperative"])
    def test_profile_evaluated_only_until_stationary(self, name, monkeypatch):
        params, mode = TestOnPathStreams.CASES[name]
        profile = StrategyProfile(mode, params)
        calls = []
        offer = StrategyProfile.offer

        def counted(self, t, y, barrier_after):
            calls.append(t)
            return offer(self, t, y, barrier_after)

        monkeypatch.setattr(StrategyProfile, "offer", counted)
        stats = simulate(profile, params, DIST, horizon=100_000, n_runs=1)
        elim_period = int(next(iter(stats.elimination_periods)))
        assert len(calls) <= elim_period + 1


class TestCooperativeEquivalence:
    def test_on_path_equal(self):
        uni = make(c_D=25.0)
        coop = make(c_D=25.0, elimination_mode=EliminationMode.COOPERATIVE)
        p_uni = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, uni)
        p_coop = StrategyProfile(ProfileMode.COOPERATIVE_INEFFICIENT, coop)
        buf_u, buf_c = io.StringIO(), io.StringIO()
        s_uni = simulate(p_uni, uni, DIST, horizon=200, n_runs=3, seed=1,
                         trace=buf_u)
        s_coop = simulate(p_coop, coop, DIST, horizon=200, n_runs=3, seed=1,
                          trace=buf_c)
        assert s_uni.payoff_r_mean == s_coop.payoff_r_mean
        assert s_uni.payoff_d_mean == s_coop.payoff_d_mean
        assert s_uni.elimination_periods == s_coop.elimination_periods
        rec_u = [json.loads(line) for line in buf_u.getvalue().splitlines()]
        rec_c = [json.loads(line) for line in buf_c.getvalue().splitlines()]
        for a, b in zip(rec_u, rec_c):
            for key in ("period", "y", "offer", "flow_r", "flow_d", "war"):
                assert a[key] == b[key]


def replayed(builtin, flip_period=None, offers=None):
    """Custom profile that plays the built-in profile's votes, offers and
    acceptance rule; its proposer flips the prescribed vote in
    ``flip_period``, and offers ``offers[t]`` in each period t that
    ``offers`` names."""
    votes = builtin.prescribed_votes
    eliminate_d = None
    if builtin.mode is ProfileMode.COOPERATIVE_INEFFICIENT:
        def eliminate_d(t, y, b):
            return votes(t, b)[1]
    offer = builtin.offer
    if offers:
        def offer(t, y, b):
            return offers[t] if t in offers else builtin.offer(t, y, b)
    return StrategyProfile(
        mode=ProfileMode.CUSTOM, params=builtin.params,
        custom_eliminate=lambda t, y, b: votes(t, b)[0] != (t == flip_period),
        custom_eliminate_d=eliminate_d,
        custom_offer=offer, custom_accept=builtin.accepts)


class TestOffPathRule:
    """The engine plays the war trigger that the oracle prices: a proposer
    that departs from the prescribed period-1 elimination decision, or
    offers less than the responder accepts, facing the built-in responder,
    is met with war at once, and its payoff is the oracle's war value for
    that deviation."""

    # demo-b, the interior point and three sampled interior points, one
    # per mode: at c_D = 25 a war replay's 4 SE + tail_bound exceeds 0.1,
    # so three of demo-b's six war replays miss a gain mispriced by 0.1;
    # each of the others catches it.  At each sampled point the first draw
    # with interior offers already held 4 SE + tail_bound under 0.1
    DEMO_B = ("efficient", "inefficient", "cooperative")
    INTERIOR = ("interior-efficient", "interior-inefficient",
                "interior-cooperative")
    SAMPLED = first_interior_draws(20261022)
    CASES = {
        "efficient": (make(c_D=35.0), ProfileMode.EFFICIENT_PEACE),
        "inefficient": (make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE),
        "cooperative": (
            make(c_D=25.0, elimination_mode=EliminationMode.COOPERATIVE),
            ProfileMode.COOPERATIVE_INEFFICIENT),
        **{name: TestOnPathStreams.CASES[name] for name in INTERIOR},
        **{name: (q, mode) for name, (q, mode, _) in SAMPLED.items()},
    }
    HORIZON = 200

    @staticmethod
    def dist(params):
        # barrier values drawn uniformly about the point's mu, 0.2 wide
        # where [0, 1] allows
        return BarrierDistribution.uniform_with_mean(params.mu, 0.2)

    def test_sampled_draws_pinned(self):
        # a change to the sampler changes the sampled cases: this shows it
        assert {name: draws for name, (_, _, draws)
                in self.SAMPLED.items()} == {"sampled-efficient": 38,
                                             "sampled-inefficient": 24,
                                             "sampled-cooperative": 8}

    def assert_war_priced(self, name, stats, war_r):
        bound = 4.0 * stats.payoff_r_se + stats.tail_bound
        assert abs(stats.payoff_r_mean - war_r) <= bound
        # off demo-b a gain mispriced by 0.1 falls outside the bound
        assert name in self.DEMO_B or bound < 0.1

    @pytest.mark.parametrize("name", list(CASES))
    def test_flipped_vote_meets_priced_war(self, name):
        params, mode = self.CASES[name]
        profile = replayed(StrategyProfile(mode, params), flip_period=1)
        buf = io.StringIO()
        n_runs = 4000
        stats = simulate(profile, params, self.dist(params), self.HORIZON,
                         n_runs, seed=16, trace=buf)
        assert stats.war_frequency == 1.0
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(records) == n_runs
        assert all(r["period"] == 1 and r["war"] for r in records)
        # the oracle reports each deviation's gain over the raw equilibrium
        # value of the proposer
        report = verify_period1(params, mode)
        gain = (report.diagnostics["keep_trigger"]
                if mode is ProfileMode.EFFICIENT_PEACE
                else report.gains["eliminate_then_war"])
        self.assert_war_priced(name, stats,
                               gain + raw_payoffs(params, mode)[0])

    @pytest.mark.parametrize("name", list(CASES))
    def test_rejected_offer_meets_priced_war(self, name):
        # an offer of 0 in period 1 falls below the responder's cutoff at
        # each case, so it is rejected and war follows at once; verify
        # prices that war once, as war_period1
        params, mode = self.CASES[name]
        builtin = StrategyProfile(mode, params)
        barrier_after = not builtin.prescribed_votes(1, True)[0]
        assert builtin.acceptance_cutoff(1, barrier_after) > 0.0
        stats = simulate(replayed(builtin, offers={1: 0.0}), params,
                         self.dist(params), self.HORIZON, n_runs=4000,
                         seed=16)
        assert stats.war_frequency == 1.0
        self.assert_war_priced(
            name, stats, verify_period1(params, mode).gains["war_period1"]
            + raw_payoffs(params, mode)[0])

    @pytest.mark.parametrize("name", INTERIOR)
    def test_stationary_offer_meets_priced_war(self, name):
        # an offer of 0 in period 2 falls below the stationary cutoff
        # p - (1 - delta) c_D = 0.1, so war follows in period 2; verify
        # prices that war as proposer_stationary, one period on.  The raw
        # offers lie inside (0, y) here, so the played game is the priced one
        params, mode = self.CASES[name]
        builtin = StrategyProfile(mode, params)
        assert_close(builtin.acceptance_cutoff(2, False), 0.1)
        stats = simulate(replayed(builtin, offers={2: 0.0}), params,
                         self.dist(params), self.HORIZON, n_runs=4000,
                         seed=16)
        assert stats.war_frequency == 1.0
        war_r = raw_payoffs(params, mode)[0] + params.delta * \
            verify_period1(params, mode).gains["proposer_stationary"]
        assert abs(stats.payoff_r_mean - war_r) <= \
            4.0 * stats.payoff_r_se + stats.tail_bound

    @pytest.mark.parametrize("name", list(CASES))
    def test_replay_traces_the_builtin_trajectory(self, name):
        # votes included: once the barrier is gone neither path records a
        # responder vote
        params, mode = self.CASES[name]
        builtin = StrategyProfile(mode, params)
        got, want = io.StringIO(), io.StringIO()
        dist = self.dist(params)
        stats = simulate(replayed(builtin), params, dist, horizon=6,
                         n_runs=1, seed=16, trace=got)
        assert stats == simulate(builtin, params, dist, horizon=6,
                                 n_runs=1, trace=want)
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("name", list(CASES))
    def test_replayed_profile_stays_at_peace(self, name):
        params, mode = self.CASES[name]
        builtin = StrategyProfile(mode, params)
        dist = self.dist(params)
        got = simulate(replayed(builtin), params, dist, self.HORIZON,
                       n_runs=20, seed=16)
        want = simulate(builtin, params, dist, self.HORIZON, n_runs=20)
        assert got.war_frequency == 0.0
        assert got.elimination_periods == want.elimination_periods
        for a, b in ((got.payoff_r_mean, want.payoff_r_mean),
                     (got.payoff_d_mean, want.payoff_d_mean)):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestFeasibilityByPlay:
    """verify's feasibility gain, war_d - (y1 + delta v_d2), is what the
    responder gets by rejecting the whole period-1 resource y1 and fighting,
    less what it gets by accepting it and then the stationary offer.  It is
    held to play 0.1 below and above each threshold, where the gain is
    +0.07 and -0.07, on both built-in paths."""

    POINT = dict(delta=0.3, p=0.3, p1=0.9, mu=0.9, h0=0.2, c_R=1.0)
    DIST = BarrierDistribution.degenerate(0.9)
    HORIZON = 60

    @pytest.mark.parametrize("shift", [-0.1, 0.1])
    @pytest.mark.parametrize("mode", [ProfileMode.EFFICIENT_PEACE,
                                      ProfileMode.INEFFICIENT_PEACE],
                             ids=["eliminate-at-once", "keep-then-eliminate"])
    def test_feasibility_gain_is_played(self, mode, shift):
        efficient = mode is ProfileMode.EFFICIENT_PEACE
        ts = compute_thresholds(make(**self.POINT))
        params = make(**self.POINT,
                      c_D=(ts.cbar_D if efficient else ts.clow_D) + shift)
        # the stationary offer p - (1 - delta) c_D fits inside (0, 1) for
        # c_D < 0.43, so the played continuation is the priced v_d2
        stationary = compute_thresholds(params).offer_stationary
        assert 0.0 < stationary < 1.0
        elim_period = 1 if efficient else 2

        def played(reject_first):
            return StrategyProfile(
                mode=ProfileMode.CUSTOM, params=params,
                custom_eliminate=lambda t, y, b: t >= elim_period,
                custom_offer=lambda t, y, b: y if t == 1 else stationary,
                custom_accept=lambda t, y, b, o: not (reject_first and t == 1))

        peace = simulate(played(False), params, self.DIST, self.HORIZON,
                         n_runs=2, seed=40)
        # 8000 runs hold the SE under 0.005, so a gain mispriced by 0.1
        # misses by over 20 SE
        war = simulate(played(True), params, self.DIST, self.HORIZON,
                       n_runs=8000, seed=40)
        assert (peace.war_frequency, war.war_frequency) == (0.0, 1.0)
        gain = verify_period1(params, mode).gains["feasibility"]
        assert abs(war.payoff_d_mean - peace.payoff_d_mean - gain) <= \
            4.0 * math.hypot(war.payoff_d_se, peace.payoff_d_se) + \
            war.tail_bound
