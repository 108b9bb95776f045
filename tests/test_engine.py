import hashlib
import io
import json
import math

import numpy as np
import pytest

from barriergame import engine
from barriergame.engine import (
    ActionRecord,
    GameError,
    GameState,
    ProfileExistenceError,
    ProfileMode,
    Response,
    StrategyProfile,
    TerminalOutcome,
    _war_continuation,
    analytic_payoffs,
    equilibrium_profile,
    new_game,
    resolve_elimination,
    simulate,
    step,
    war_lottery,
)
from barriergame.params import (
    BarrierDistribution,
    EliminationMode,
    InvalidParamsError,
    ModelParams,
)
from conftest import assert_close


def make(**kw):
    base = dict(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6, c_R=1.0, c_D=25.0)
    base.update(kw)
    return ModelParams(**base)


DIST = BarrierDistribution.degenerate(0.8)


def accept(offer, elim_r=False, elim_d=None):
    return ActionRecord(elim_r=elim_r, offer=offer, response=Response.ACCEPT,
                        elim_d=elim_d)


def reject(offer=0.0, elim_r=False, elim_d=None):
    return ActionRecord(elim_r=elim_r, offer=offer, response=Response.REJECT,
                        elim_d=elim_d)


class TestStateMachine:
    def test_new_game(self):
        state = new_game(make(), DIST)
        assert state.t == 1 and state.barrier_present and state.y == 0.6
        assert not state.war_occurred

    def test_new_game_rejects_invalid(self):
        with pytest.raises(InvalidParamsError, match="p1 > p required"):
            new_game(make(p1=0.1))

    def test_elimination_sets_full_resource(self):
        state = new_game(make(), DIST)
        y_eff, barrier = resolve_elimination(state, accept(0.0, elim_r=True), make())
        assert y_eff == 1.0 and not barrier

    def test_accept_advances_with_draw(self):
        rng = np.random.default_rng(0)
        state = new_game(make(), DIST)
        nxt = step(state, accept(0.2), make(), DIST, rng)
        assert isinstance(nxt, GameState)
        assert nxt.t == 2 and nxt.barrier_present and nxt.y == 0.8

    def test_accept_after_elimination(self):
        rng = np.random.default_rng(0)
        state = new_game(make(), DIST)
        nxt = step(state, accept(0.5, elim_r=True), make(), DIST, rng)
        assert nxt.y == 1.0 and not nxt.barrier_present

    def test_offer_out_of_range(self):
        rng = np.random.default_rng(0)
        state = new_game(make(), DIST)
        with pytest.raises(GameError, match="outside"):
            step(state, accept(0.7), make(), DIST, rng)  # y = h0 = 0.6
        with pytest.raises(GameError, match="outside"):
            step(state, accept(-0.1), make(), DIST, rng)

    def test_reject_is_terminal_with_period1_odds(self):
        params = make()
        state = new_game(params, DIST)
        outcome = step(state, reject(), params, DIST, np.random.default_rng(0))
        assert isinstance(outcome, TerminalOutcome)
        assert outcome.state.t == 1
        assert outcome.d_win_prob == params.p1  # theta = 1, barrier kept
        assert outcome.state.war_occurred
        assert outcome.state.winner in ("R", "D")

    def test_war_probability_uses_theta_with_barrier(self):
        params = make(theta=1.2)
        state = new_game(params, DIST)
        outcome = step(state, reject(), params, DIST, np.random.default_rng(0))
        assert_close(outcome.d_win_prob, 1.2 * 0.7, 1e-12)
        # after elimination the modifier no longer applies
        outcome = step(state, reject(elim_r=True), params, DIST,
                       np.random.default_rng(0))
        assert outcome.d_win_prob == params.p1

    def test_post_shift_war_odds(self):
        params = make()
        state = GameState(t=3, barrier_present=False, y=1.0)
        outcome = step(state, reject(), params, DIST, np.random.default_rng(0))
        assert outcome.d_win_prob == params.p

    def test_winner_frequency(self):
        params = make()
        rng = np.random.default_rng(42)
        state = new_game(params, DIST)
        wins = sum(step(state, reject(), params, DIST, rng).state.winner == "D"
                   for _ in range(20_000))
        assert abs(wins / 20_000 - 0.7) < 3.0 * math.sqrt(0.7 * 0.3 / 20_000)

    def test_terminal_state_absorbing(self):
        params = make()
        outcome = step(new_game(params, DIST), reject(), params, DIST,
                       np.random.default_rng(0))
        with pytest.raises(GameError, match="after war"):
            step(outcome.state, accept(0.1), params, DIST,
                 np.random.default_rng(0))

    def test_cooperative_requires_both(self):
        params = make(elimination_mode=EliminationMode.COOPERATIVE)
        state = new_game(params, DIST)
        y_eff, barrier = resolve_elimination(
            state, accept(0.0, elim_r=False, elim_d=True), params)
        assert barrier and y_eff == 0.6
        y_eff, barrier = resolve_elimination(
            state, accept(0.0, elim_r=True, elim_d=True), params)
        assert not barrier and y_eff == 1.0

    def test_mode_vote_mismatch(self):
        state = new_game(make(), DIST)
        with pytest.raises(GameError, match="forbids elim_d"):
            resolve_elimination(state, accept(0.0, elim_d=True), make())
        coop = make(elimination_mode=EliminationMode.COOPERATIVE)
        with pytest.raises(GameError, match="requires elim_d"):
            resolve_elimination(new_game(coop, DIST), accept(0.0), coop)


class TestProfiles:
    def test_inefficient_on_path(self):
        params = make(c_D=25.0)
        profile = equilibrium_profile(params, ProfileMode.INEFFICIENT_PEACE)
        assert profile.prescribed_votes(1, True) == (False, None)
        assert profile.prescribed_votes(2, True) == (True, None)
        assert_close(profile.offer(1, 0.6, True), 0.26)
        assert profile.offer(2, 1.0, False) == 0.0  # raw -2.2 clamped
        own = profile.offer(1, 0.6, True)
        assert profile.accepts(1, 0.6, True, own, on_path=True)
        assert not profile.accepts(1, 0.6, True, 0.25, on_path=True)
        assert profile.accepts(2, 1.0, False, 0.0, on_path=True)

    def test_efficient_on_path(self):
        params = make(c_D=35.0)
        profile = equilibrium_profile(params, ProfileMode.EFFICIENT_PEACE)
        assert profile.prescribed_votes(1, True) == (True, None)
        assert_close(profile.offer(1, 1.0, False), 0.8)

    def test_off_path_trigger(self):
        params = make(c_D=25.0)
        profile = equilibrium_profile(params, ProfileMode.INEFFICIENT_PEACE)
        assert not profile.accepts(1, 1.0, False, 1.0, on_path=False)

    def test_refusal_names_threshold(self):
        with pytest.raises(ProfileExistenceError, match="clow_D"):
            equilibrium_profile(make(c_D=20.0), ProfileMode.INEFFICIENT_PEACE)
        with pytest.raises(ProfileExistenceError, match="cbar_D"):
            equilibrium_profile(make(c_D=30.0), ProfileMode.EFFICIENT_PEACE)

    def test_joint_condition_refusal(self):
        # weak power shift, mild barrier: Clow > 0 > clow_D, so tiny joint
        # costs refuse the profile on the joint condition
        params = make(delta=0.5, p=0.5, p1=0.55, mu=0.95, h0=0.1,
                      c_D=0.1, c_R=0.0)
        from barriergame.thresholds import compute_thresholds
        ts = compute_thresholds(params)
        assert ts.clow_D <= params.c_D < ts.Clow
        with pytest.raises(ProfileExistenceError, match="Clow"):
            equilibrium_profile(params, ProfileMode.INEFFICIENT_PEACE)

    def test_cooperative_needs_cooperative_mode(self):
        with pytest.raises(GameError, match="cooperative"):
            equilibrium_profile(make(), ProfileMode.COOPERATIVE_INEFFICIENT)
        coop = make(elimination_mode=EliminationMode.COOPERATIVE)
        profile = equilibrium_profile(coop, ProfileMode.COOPERATIVE_INEFFICIENT)
        assert profile.prescribed_votes(1, True) == (False, True)
        assert profile.prescribed_votes(2, True) == (True, True)

    def test_cutoff_with_barrier_past_the_shift(self):
        # off path: the barrier still stands at t = 3, so the responder
        # weighs the post-shift war lottery against its stationary value:
        # 0.3 * (0.7 + 0.9 * 0.8 / 0.1) - 25 - 0.9 * (0.3 / 0.1 - 25)
        profile = equilibrium_profile(make(c_D=25.0),
                                      ProfileMode.INEFFICIENT_PEACE)
        assert_close(profile.acceptance_cutoff(3, 0.7, True), -2.83, 1e-12)
        assert profile.offer(3, 0.7, True) == 0.0
        assert profile.accepts(3, 0.7, True, 0.0, on_path=True)

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
        profile = equilibrium_profile(params, ProfileMode.INEFFICIENT_PEACE)
        assert profile.thresholds == compute_thresholds(params)
        assert_close(profile.offer(1, 0.6, True), 0.26)
        simulate(profile, params, DIST, horizon=50, n_runs=2)
        assert calls == [params]
        analytic_payoffs(params, ProfileMode.INEFFICIENT_PEACE)
        assert calls == [params, params]


class TestAnalyticPayoffs:
    def test_raw_values_demo(self):
        v_r, v_d = analytic_payoffs(make(c_D=25.0),
                                    ProfileMode.INEFFICIENT_PEACE, clamped=False)
        assert_close(v_r, 0.6 * 0.3 + 9.0 * (1.0 - 0.56) + 25.0, 1e-9)
        assert_close(v_d, 0.7 * 0.6 + 9.0 * 0.7 * 0.8 - 25.0, 1e-9)

    def test_raw_responder_at_war_value(self):
        params = make(c_D=25.0)
        _, v_d = analytic_payoffs(params, ProfileMode.INEFFICIENT_PEACE,
                                  clamped=False)
        war_d = war_lottery(params, 1, True, params.h0)[1] - params.c_D
        assert_close(v_d, war_d, 1e-9)

    @pytest.mark.parametrize("clamped", [True, False])
    def test_full_surplus_split(self, clamped):
        params = make(c_D=25.0)
        v_r, v_d = analytic_payoffs(params, ProfileMode.INEFFICIENT_PEACE,
                                    clamped=clamped)
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
        # text as equilibrium_profile
        with pytest.raises(GameError) as built:
            equilibrium_profile(params, mode)
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
        assert analytic_payoffs(params, mode, clamped=clamped) == want


def always_war(params):
    return StrategyProfile(
        mode=ProfileMode.CUSTOM, params=params,
        custom_eliminate=lambda t, y, b: False,
        custom_offer=lambda t, y, b: 0.0,
        custom_accept=lambda t, y, b, o: False)


class TestSimulate:
    def test_matches_analytic_degenerate(self):
        params = make(c_D=25.0)
        profile = equilibrium_profile(params, ProfileMode.INEFFICIENT_PEACE)
        stats = simulate(profile, params, DIST, horizon=400, n_runs=10, seed=0)
        v_r, v_d = analytic_payoffs(params, ProfileMode.INEFFICIENT_PEACE)
        tail = stats.tail_bound
        assert abs(stats.payoff_r_mean - v_r) <= 1e-6 + tail
        assert abs(stats.payoff_d_mean - v_d) <= 1e-6 + tail
        assert stats.war_frequency == 0.0
        assert stats.elimination_periods == {2: 1.0}

    def test_efficient_eliminates_immediately(self):
        params = make(c_D=35.0)
        profile = equilibrium_profile(params, ProfileMode.EFFICIENT_PEACE)
        stats = simulate(profile, params, DIST, horizon=300, n_runs=5, seed=0)
        assert stats.elimination_periods == {1: 1.0}
        v_r, v_d = analytic_payoffs(params, ProfileMode.EFFICIENT_PEACE)
        assert abs(stats.payoff_r_mean - v_r) <= 1e-6
        assert abs(stats.payoff_d_mean - v_d) <= 1e-6

    def test_distribution_choice_does_not_move_onpath_payoffs(self):
        params = make(c_D=25.0)
        profile = equilibrium_profile(params, ProfileMode.INEFFICIENT_PEACE)
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
        profile = equilibrium_profile(params, ProfileMode.INEFFICIENT_PEACE)
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
        gross_r, gross_d = war_lottery(params, 1, True, params.h0)
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
        gross_r, gross_d = war_lottery(params, 1, True, params.h0)
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
                         trace=buf, trace_runs=30)
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
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["elim_d"] for r in records] == [False, False, False, True,
                                                  False, False]
        assert [r["y"] for r in records] == [0.6, 0.8, 0.8, 1.0, 1.0, 1.0]
        alone = StrategyProfile(mode=ProfileMode.CUSTOM, params=params, **votes)
        stats = simulate(alone, params, DIST, horizon=6, n_runs=2, seed=3)
        assert stats.elimination_periods == {None: 1.0}

    def test_war_period_traced(self):
        params = make(c_D=25.0)
        buf = io.StringIO()
        stats = simulate(always_war(params), params, DIST, horizon=20,
                         n_runs=3, seed=5, trace=buf)
        assert stats.war_frequency == 1.0
        # one war record, for the first run only
        assert [json.loads(line) for line in buf.getvalue().splitlines()] == [{
            "run": 0, "period": 1, "y": 0.6, "elim_r": False, "elim_d": None,
            "offer": 0.0, "response": "Reject", "flow_r": 0.0, "flow_d": 0.0,
            "war": True}]

    def test_profile_params_must_match(self):
        profile = equilibrium_profile(make(c_D=25.0),
                                      ProfileMode.INEFFICIENT_PEACE)
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
        # a hand-built profile gets no run and no price where
        # equilibrium_profile would refuse it, with the same error type and
        # text: under joint consent the efficient profile's barrier would
        # never fall
        refusals = (GameError, InvalidParamsError)
        with pytest.raises(refusals) as built:
            equilibrium_profile(params, mode)
        for refuse in (
                lambda: analytic_payoffs(params, mode),
                lambda: simulate(StrategyProfile(mode=mode, params=params),
                                 params, DIST, horizon=10, n_runs=1)):
            with pytest.raises(refusals) as got:
                refuse()
            assert type(got.value) is type(built.value)
            assert str(got.value) == str(built.value)

    def test_bad_sizes(self):
        profile = equilibrium_profile(make(c_D=25.0),
                                      ProfileMode.INEFFICIENT_PEACE)
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
                         seed=2024, trace=buf, trace_runs=25)
        want_stats, want_sha = self.PINNED[dist.kind.value]
        assert stats.to_dict() == want_stats
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want_sha


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
        profile = equilibrium_profile(params, mode)
        buf = io.StringIO()
        stats = simulate(profile, params, DIST, horizon=30, n_runs=7, seed=5,
                         trace=buf)
        want_stats, want_sha = self.PINNED[name]
        assert stats.to_dict() == want_stats
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want_sha


class TestCooperativeEquivalence:
    def test_on_path_equal(self):
        uni = make(c_D=25.0)
        coop = make(c_D=25.0, elimination_mode=EliminationMode.COOPERATIVE)
        p_uni = equilibrium_profile(uni, ProfileMode.INEFFICIENT_PEACE)
        p_coop = equilibrium_profile(coop, ProfileMode.COOPERATIVE_INEFFICIENT)
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
