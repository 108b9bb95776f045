"""Executable stage game, equilibrium strategy profiles, and Monte Carlo
payoff simulation.

The stage game per period: an elimination stage (one-sided or joint consent,
irrevocable), an ultimatum offer bounded by the current resource, and an
accept/reject response where rejection triggers a terminal war lottery.
Executable offers live in [0, y]; the equilibrium bookkeeping behind the
built-in profiles uses the raw indifference transfers, which the profiles
clamp at zero when negative.
"""
from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, IO, Optional

import numpy as np

from .classifier import EquilibriumReport, Margins
from .params import (
    BarrierDistribution,
    EliminationMode,
    ModelParams,
    require_mean_matches,
    require_valid,
)
from .thresholds import ThresholdSet, compute_thresholds, effective_mu


class Response(enum.Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


class ProfileMode(enum.Enum):
    EFFICIENT_PEACE = "EfficientPeace"
    INEFFICIENT_PEACE = "InefficientPeace"
    COOPERATIVE_INEFFICIENT = "CooperativeInefficient"
    CUSTOM = "Custom"


class GameError(RuntimeError):
    pass


class ProfileExistenceError(GameError):
    """Requested profile's existence condition fails."""


@dataclass(frozen=True)
class GameState:
    t: int
    barrier_present: bool
    y: float                # resource disputed this period, before elimination
    war_occurred: bool = False
    winner: Optional[str] = None


@dataclass(frozen=True)
class ActionRecord:
    elim_r: bool
    offer: float
    response: Response
    elim_d: Optional[bool] = None   # only meaningful under joint consent


@dataclass(frozen=True)
class TerminalOutcome:
    state: GameState    # terminal snapshot: period, barrier, resource, winner
    d_win_prob: float


def new_game(params: ModelParams,
             dist: Optional[BarrierDistribution] = None) -> GameState:
    """Initial state: period 1, barrier standing, resource at its default."""
    require_valid(params)
    if dist is not None:
        require_mean_matches(dist, params)
    return GameState(t=1, barrier_present=True, y=params.h0)


def win_prob_d(params: ModelParams, t: int, barrier_present: bool) -> float:
    """Responder's war-win probability; scaled by theta while the barrier stands."""
    base = params.p1 if t == 1 else params.p
    return params.theta * base if barrier_present else base


def pie_present_value(params: ModelParams, y: float, barrier_present: bool,
                      postwar_mean: Optional[float] = None) -> float:
    """Expected present value of the full resource stream captured by a war
    winner: the current realized resource plus the discounted future flow."""
    delta = params.delta
    if barrier_present:
        m = effective_mu(params) if postwar_mean is None else postwar_mean
        return y + delta * m / (1.0 - delta)
    return y + delta / (1.0 - delta)


def war_lottery(params: ModelParams, t: int, barrier_present: bool, y: float,
                postwar_mean: Optional[float] = None) -> tuple[float, float]:
    """(proposer, responder) expected shares of the war prize at the given
    node, before either side pays its cost of war."""
    wp = win_prob_d(params, t, barrier_present)
    pie = pie_present_value(params, y, barrier_present, postwar_mean)
    return (1.0 - wp) * pie, wp * pie


def resolve_elimination(state: GameState, actions: ActionRecord,
                        params: ModelParams) -> tuple[float, bool]:
    """Apply the elimination stage; returns (effective resource, barrier after).

    Under joint consent the barrier falls only if both sides agree."""
    if not state.barrier_present:
        return 1.0, False
    if params.elimination_mode is EliminationMode.COOPERATIVE:
        if actions.elim_d is None:
            raise GameError("cooperative mode requires elim_d")
        eliminated = actions.elim_r and actions.elim_d
    else:
        if actions.elim_d is not None:
            raise GameError("unilateral mode forbids elim_d")
        eliminated = actions.elim_r
    if eliminated:
        return 1.0, False
    return state.y, True


def step(state: GameState, actions: ActionRecord, params: ModelParams,
         dist: BarrierDistribution, rng: np.random.Generator):
    """Advance one period.  Returns the next GameState on acceptance or a
    TerminalOutcome on rejection.  Terminal states are absorbing."""
    if state.war_occurred:
        raise GameError("no actions accepted after war")
    y_eff, barrier_after = resolve_elimination(state, actions, params)
    if not (0.0 <= actions.offer <= y_eff):
        raise GameError(f"offer {actions.offer} outside [0, {y_eff}]")
    if actions.response is Response.REJECT:
        wp = win_prob_d(params, state.t, barrier_after)
        terminal = GameState(t=state.t, barrier_present=barrier_after, y=y_eff,
                             war_occurred=True,
                             winner="D" if rng.random() < wp else "R")
        return TerminalOutcome(state=terminal, d_win_prob=wp)
    if barrier_after:
        return GameState(t=state.t + 1, barrier_present=True,
                         y=float(dist.sample(rng)))
    return GameState(t=state.t + 1, barrier_present=False, y=1.0)


@dataclass(frozen=True)
class StrategyProfile:
    """A strategy pair for the stage game.

    Built-in modes reproduce the threshold-backed constructions: both sides
    play the indifference bookkeeping on path, and the responder treats any
    off-prescription elimination decision as a war trigger.  Custom profiles
    supply callbacks and are simulated, not solved.

    A profile checks itself where it is built.  A built-in one refuses
    invalid parameters or overflowing margins (InvalidParamsError), an
    elimination mode it cannot be played under (GameError) and a point where
    ``classify`` does not report it (ProfileExistenceError); it reads its
    offers from the ``ThresholdSet`` of its params, computed once, by that
    check.  A custom one needs its offer and accept callbacks (GameError).
    """

    mode: ProfileMode
    params: ModelParams
    custom_eliminate: Optional[Callable[[int, float, bool], bool]] = None
    custom_eliminate_d: Optional[Callable[[int, float, bool], bool]] = None
    custom_offer: Optional[Callable[[int, float, bool], float]] = None
    custom_accept: Optional[Callable[[int, float, bool, float], bool]] = None

    def __post_init__(self):
        mode, params = self.mode, self.params
        if mode is ProfileMode.CUSTOM:
            if self.custom_offer is None:
                raise GameError("custom profile lacks an offer callback")
            if self.custom_accept is None:
                raise GameError("custom profile lacks an accept callback")
            return
        require_valid(params)
        # a built-in profile is played only under the elimination mode it needs
        if mode is ProfileMode.COOPERATIVE_INEFFICIENT:
            if params.elimination_mode is not EliminationMode.COOPERATIVE:
                raise GameError("cooperative profile requires cooperative elimination mode")
        elif params.elimination_mode is not EliminationMode.UNILATERAL:
            raise GameError(f"{mode.value} profile requires unilateral elimination mode")
        # the existence conditions are read from the classifier's report, at
        # the profile's own threshold record
        ts = self.thresholds
        report = EquilibriumReport(Margins.at(params, ts), ts)
        if mode is ProfileMode.EFFICIENT_PEACE:
            if not report.efficient_peace_exists:
                raise ProfileExistenceError(
                    f"c_D={params.c_D} below cbar_D={ts.cbar_D}")
        elif not report.inefficient_peace_exists:
            if report.margins.cd < 0.0:
                raise ProfileExistenceError(
                    f"c_D={params.c_D} below clow_D={ts.clow_D}")
            raise ProfileExistenceError(
                f"c_D + c_R = {params.c_D + params.c_R} below Clow={ts.Clow}")

    def prescribed_votes(self, t: int, barrier_present: bool) -> tuple[bool, Optional[bool]]:
        """(proposer vote, responder vote); responder vote is None outside
        joint-consent play."""
        if not barrier_present:
            return False, None
        if self.mode is ProfileMode.EFFICIENT_PEACE:
            return True, None
        if self.mode is ProfileMode.INEFFICIENT_PEACE:
            return (t >= 2), None
        if self.mode is ProfileMode.COOPERATIVE_INEFFICIENT:
            # period 1: proposer vetoes, responder consents; both consent after
            return (t >= 2), True
        raise GameError("custom profiles prescribe via callbacks")

    @functools.cached_property
    def thresholds(self) -> ThresholdSet:
        return compute_thresholds(self.params)

    def acceptance_cutoff(self, t: int, y: float, barrier_after: bool) -> float:
        """Raw indifference transfer at this node: the smallest offer making
        the responder weakly prefer acceptance, under the stationary
        continuation bookkeeping.  May be negative."""
        q = self.params
        ts = self.thresholds
        if t == 1:
            return ts.offer1_inefficient if barrier_after else ts.offer1_efficient
        if not barrier_after:
            return ts.offer_stationary
        # barrier still standing past the power shift: same acceptance logic
        # with the post-shift win probability and next-period elimination
        delta = q.delta
        war_d = war_lottery(q, t, True, y)[1] - q.c_D
        continuation = q.p / (1.0 - delta) - q.c_D
        return war_d - delta * continuation

    def offer(self, t: int, y: float, barrier_after: bool) -> float:
        if self.mode is ProfileMode.CUSTOM:
            return self.custom_offer(t, y, barrier_after)
        raw = self.acceptance_cutoff(t, y, barrier_after)
        return min(max(raw, 0.0), y)

    def accepts(self, t: int, y: float, barrier_after: bool, offer: float,
                on_path: bool) -> bool:
        if self.mode is ProfileMode.CUSTOM:
            return self.custom_accept(t, y, barrier_after, offer)
        if not on_path:
            return False
        return offer >= self.acceptance_cutoff(t, y, barrier_after)


def equilibrium_profile(params: ModelParams, mode: ProfileMode) -> StrategyProfile:
    """Build the named built-in profile; the constructor refuses what
    cannot be played (see ``StrategyProfile``)."""
    if mode is ProfileMode.CUSTOM:
        raise GameError("custom profiles are built directly, not requested here")
    return StrategyProfile(mode=mode, params=params)


def analytic_payoffs(params: ModelParams, mode: ProfileMode,
                     clamped: bool = True) -> tuple[float, float]:
    """Present values (proposer, responder) of the on-path play.

    With clamped=True (default) the values price the offers an executable
    strategy can actually make, matching the simulator exactly.  With
    clamped=False the raw indifference transfers are priced, which pegs the
    responder at its war value even where that would require negative offers.
    A profile that ``equilibrium_profile`` refuses is refused here alike.
    """
    ts = equilibrium_profile(params, mode).thresholds
    delta = params.delta
    if mode is ProfileMode.EFFICIENT_PEACE:
        y1 = 1.0
        x1 = ts.offer1_efficient_clamped if clamped else ts.offer1_efficient
    else:
        y1 = params.h0
        x1 = ts.offer1_inefficient_clamped if clamped else ts.offer1_inefficient
    xs = ts.offer_stationary_clamped if clamped else ts.offer_stationary
    v_d = x1 + delta * xs / (1.0 - delta)
    v_r = (y1 - x1) + delta * (1.0 - xs) / (1.0 - delta)
    return v_r, v_d


@dataclass(frozen=True)
class SimStats:
    n_runs: int
    horizon: int
    payoff_r_mean: float
    payoff_r_se: float
    payoff_d_mean: float
    payoff_d_se: float
    war_frequency: float
    elimination_periods: dict
    tail_bound: float

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "horizon": self.horizon,
            "payoff_r_mean": self.payoff_r_mean,
            "payoff_r_se": self.payoff_r_se,
            "payoff_d_mean": self.payoff_d_mean,
            "payoff_d_se": self.payoff_d_se,
            "war_frequency": self.war_frequency,
            "elimination_periods": {str(k): v for k, v in self.elimination_periods.items()},
            "tail_bound": self.tail_bound,
        }


def _split_flows(y: float, offer: float) -> tuple[float, float]:
    # flows must sum to y exactly; the responder's booked flow absorbs the
    # subtraction rounding (at most 1 ulp off the nominal offer)
    flow_r = y - offer
    flow_d = y - flow_r
    return flow_r, flow_d


def _trace_record(run: int, state_t: int, y: float, actions: ActionRecord,
                  flow_r: float, flow_d: float, war: bool) -> dict:
    return {
        "run": run,
        "period": state_t,
        "y": y,
        "elim_r": actions.elim_r,
        "elim_d": actions.elim_d,
        "offer": actions.offer,
        "response": actions.response.value,
        "flow_r": flow_r,
        "flow_d": flow_d,
        "war": war,
    }


def _simulate_onpath(profile: StrategyProfile, params: ModelParams,
                     horizon: int, n_runs: int,
                     trace: Optional[IO[str]]) -> SimStats:
    """Built-in profiles never reach the war lottery and their on-path flows
    are deterministic, so one trajectory prices every run exactly."""
    delta = params.delta
    v_r = 0.0
    v_d = 0.0
    elim_period = 1 if profile.mode is ProfileMode.EFFICIENT_PEACE else 2
    for t in range(1, horizon + 1):
        barrier_before = t <= elim_period
        vote_r, vote_d = profile.prescribed_votes(t, barrier_before)
        eliminated_now = barrier_before and (
            (vote_r and vote_d) if params.elimination_mode is EliminationMode.COOPERATIVE
            else vote_r)
        barrier_after = barrier_before and not eliminated_now
        y = params.h0 if (t == 1 and barrier_after) else 1.0
        offer = profile.offer(t, y, barrier_after)
        flow_r, flow_d = _split_flows(y, offer)
        disc = delta ** (t - 1)
        v_r += disc * flow_r
        v_d += disc * flow_d
        if trace is not None:
            actions = ActionRecord(elim_r=vote_r, offer=offer,
                                   response=Response.ACCEPT, elim_d=vote_d)
            trace.write(json.dumps(_trace_record(0, t, y, actions,
                                                 flow_r, flow_d, False)) + "\n")
    tail = delta ** horizon * 1.0 / (1.0 - delta)
    return SimStats(
        n_runs=n_runs, horizon=horizon,
        payoff_r_mean=v_r, payoff_r_se=0.0,
        payoff_d_mean=v_d, payoff_d_se=0.0,
        war_frequency=0.0,
        elimination_periods={elim_period: 1.0},
        tail_bound=tail,
    )


def _war_continuation(params: ModelParams, dist: BarrierDistribution,
                      barrier_at_war: bool, periods_left: int,
                      rng: np.random.Generator,
                      discounts: np.ndarray) -> float:
    """Realized discounted flow captured by the war winner after the war
    period, evaluated at the war period.  With the barrier standing, each
    postwar period renormalizes to the full resource with probability rho,
    absorbing once it happens.

    The whole postwar path is drawn in one call: ``periods_left`` barrier
    values, then (when rho > 0) ``periods_left`` renormalization coins whose
    running OR sets the flow to 1 from the first landed coin on.
    ``discounts[k]`` is ``delta ** (k + 1)``, for at least ``periods_left``
    entries."""
    delta = params.delta
    if periods_left <= 0:
        return 0.0
    if not barrier_at_war:
        # full resource every remaining period
        return delta * (1.0 - delta ** periods_left) / (1.0 - delta)
    flows = dist.sample(rng, periods_left)
    if params.rho > 0.0:
        landed = rng.random(periods_left) < params.rho
        flows[np.logical_or.accumulate(landed)] = 1.0
    return float(flows @ discounts[:periods_left])


def _simulate_general(profile: StrategyProfile, params: ModelParams,
                      dist: BarrierDistribution, horizon: int, n_runs: int,
                      seed: Optional[int], trace: Optional[IO[str]],
                      trace_runs: int) -> SimStats:
    delta = params.delta
    discounts = delta ** np.arange(1, horizon)
    streams = np.random.SeedSequence(seed).spawn(n_runs)
    payoff_r = np.empty(n_runs)
    payoff_d = np.empty(n_runs)
    wars = 0
    elim_counts: dict = {}
    for i in range(n_runs):
        rng = np.random.default_rng(streams[i])
        state = GameState(t=1, barrier_present=True, y=params.h0)
        v_r = 0.0
        v_d = 0.0
        elim_at = None
        for t in range(1, horizon + 1):
            vote_r = (profile.custom_eliminate(t, state.y, state.barrier_present)
                      if (state.barrier_present and profile.custom_eliminate) else False)
            vote_d = None
            if params.elimination_mode is EliminationMode.COOPERATIVE:
                vote_d = (profile.custom_eliminate_d(t, state.y, state.barrier_present)
                          if (state.barrier_present and profile.custom_eliminate_d)
                          else False)
            probe = ActionRecord(elim_r=vote_r, offer=0.0,
                                 response=Response.ACCEPT, elim_d=vote_d)
            y_eff, barrier_after = resolve_elimination(state, probe, params)
            if state.barrier_present and not barrier_after and elim_at is None:
                elim_at = t
            offer = profile.offer(t, y_eff, barrier_after)
            offer = min(max(offer, 0.0), y_eff)
            accept = profile.accepts(t, y_eff, barrier_after, offer, True)
            actions = ActionRecord(elim_r=vote_r, offer=offer,
                                   response=Response.ACCEPT if accept else Response.REJECT,
                                   elim_d=vote_d)
            outcome = step(state, actions, params, dist, rng)
            if isinstance(outcome, TerminalOutcome):
                end = outcome.state
                disc = delta ** (t - 1)
                spoils = end.y + _war_continuation(
                    params, dist, end.barrier_present, horizon - t, rng,
                    discounts)
                if end.winner == "D":
                    v_d += disc * (spoils - params.c_D)
                    v_r += disc * (-params.c_R)
                else:
                    v_r += disc * (spoils - params.c_R)
                    v_d += disc * (-params.c_D)
                if trace is not None and i < trace_runs:
                    trace.write(json.dumps(_trace_record(
                        i, t, y_eff, actions, 0.0, 0.0, True)) + "\n")
                wars += 1
                break
            flow_r, flow_d = _split_flows(y_eff, offer)
            disc = delta ** (t - 1)
            v_r += disc * flow_r
            v_d += disc * flow_d
            if trace is not None and i < trace_runs:
                trace.write(json.dumps(_trace_record(
                    i, t, y_eff, actions, flow_r, flow_d, False)) + "\n")
            state = outcome
        payoff_r[i] = v_r
        payoff_d[i] = v_d
        elim_counts[elim_at] = elim_counts.get(elim_at, 0) + 1
    tail = delta ** horizon * 1.0 / (1.0 - delta)
    se_r = float(payoff_r.std(ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else 0.0
    se_d = float(payoff_d.std(ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else 0.0
    return SimStats(
        n_runs=n_runs, horizon=horizon,
        payoff_r_mean=float(payoff_r.mean()), payoff_r_se=se_r,
        payoff_d_mean=float(payoff_d.mean()), payoff_d_se=se_d,
        war_frequency=wars / n_runs,
        elimination_periods={k: v / n_runs for k, v in sorted(
            elim_counts.items(), key=lambda kv: (kv[0] is None, kv[0]))},
        tail_bound=tail,
    )


def simulate(profile: StrategyProfile, params: ModelParams,
             dist: BarrierDistribution, horizon: int, n_runs: int,
             seed: Optional[int] = None, trace: Optional[IO[str]] = None,
             trace_runs: int = 1) -> SimStats:
    """Monte Carlo estimate of discounted payoffs under a strategy profile.

    Invalid parameters raise InvalidParamsError.  A profile checks itself
    when it is built, so every built-in profile is one ``equilibrium_profile``
    would build; it must be simulated under the parameters it was built for.
    Runs draw independent generator streams from the master seed; built-in
    profiles take a deterministic fast path since their on-path play never
    touches the draws.  Custom profiles step period by period, one barrier
    draw per period the barrier stands; a run that ends in war draws its
    whole postwar path in one call, so after the war draw its stream holds
    every postwar barrier value first, then the renormalization coins.
    """
    if horizon < 1 or n_runs < 1:
        raise ValueError("horizon and n_runs must be at least 1")
    require_valid(params)
    require_mean_matches(dist, params)
    if profile.mode is not ProfileMode.CUSTOM:
        if profile.params != params:
            raise GameError("built-in profiles must be simulated under the "
                            "parameters they were built for")
        return _simulate_onpath(profile, params, horizon, n_runs, trace)
    return _simulate_general(profile, params, dist, horizon, n_runs, seed,
                             trace, trace_runs)
