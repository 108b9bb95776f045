"""Executable stage game, equilibrium strategy profiles, and Monte Carlo
payoff simulation.

The stage game per period: an elimination stage (one-sided or joint consent,
irrevocable), an ultimatum offer bounded by the current resource, and an
accept/reject response where rejection triggers a terminal war lottery.
Executable offers live in [0, y]; the equilibrium bookkeeping behind the
built-in profiles uses the raw indifference transfers, which the profiles
clamp into [0, y] when they play them.
"""
from __future__ import annotations

import enum
import functools
import json
import math
from typing import Callable, IO, NamedTuple, Optional

from .classifier import EquilibriumReport, Margins
from .params import (
    BarrierDistribution,
    EliminationMode,
    ModelParams,
    require_mean_matches,
    require_valid,
)
from .thresholds import ThresholdSet, compute_thresholds


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


class GameState(NamedTuple):
    t: int
    barrier_present: bool
    y: float                # resource disputed this period, before elimination
    war_occurred: bool = False
    winner: Optional[str] = None


class ActionRecord(NamedTuple):
    elim_r: bool
    offer: float
    response: Response
    elim_d: Optional[bool] = None   # only meaningful under joint consent


def win_prob_d(params: ModelParams, t: int, barrier_present: bool) -> float:
    """Responder's war-win probability; scaled by theta while the barrier stands."""
    base = params.p1 if t == 1 else params.p
    return params.theta * base if barrier_present else base


def war_lottery(params: ModelParams, t: int, barrier_present: bool, y: float,
                postwar_mean: float) -> tuple[float, float]:
    """(proposer, responder) expected shares of the war prize at the given
    node, before either side pays its cost of war.  The prize is the current
    resource y plus the discounted future flow, whose mean is postwar_mean
    while the barrier stands and 1 once it is gone."""
    delta = params.delta
    flow = postwar_mean if barrier_present else 1
    wp = win_prob_d(params, t, barrier_present)
    pie = y + delta * flow / (1 - delta)
    return (1 - wp) * pie, wp * pie


def resolve_elimination(state: GameState, elim_r: bool,
                        elim_d: Optional[bool],
                        params: ModelParams) -> tuple[float, bool]:
    """Apply the elimination stage to the votes; returns (effective resource,
    barrier after).

    Under joint consent the barrier falls only if both sides agree."""
    if not state.barrier_present:
        return 1.0, False
    if params.elimination_mode is EliminationMode.COOPERATIVE:
        if elim_d is None:
            raise GameError("cooperative mode requires elim_d")
        eliminated = elim_r and elim_d
    else:
        if elim_d is not None:
            raise GameError("unilateral mode forbids elim_d")
        eliminated = elim_r
    return (1.0, False) if eliminated else (state.y, True)


def step(state: GameState, actions: ActionRecord, params: ModelParams,
         dist: BarrierDistribution, rng: np.random.Generator):
    """Advance one period.  Returns the next GameState on acceptance, or on
    rejection the terminal one: war occurred, its winner drawn at the war
    node's odds.  Terminal states are absorbing."""
    if state.war_occurred:
        raise GameError("no actions accepted after war")
    y_eff, barrier_after = resolve_elimination(state, actions.elim_r,
                                               actions.elim_d, params)
    if not (0.0 <= actions.offer <= y_eff):
        raise GameError(f"offer {actions.offer} outside [0, {y_eff}]")
    if actions.response is Response.REJECT:
        wp = win_prob_d(params, state.t, barrier_after)
        return GameState(state.t, barrier_after, y_eff, True,
                         "D" if rng.random() < wp else "R")
    if barrier_after:
        return GameState(state.t + 1, True, float(dist.sample(rng)))
    return GameState(state.t + 1, False, 1.0)


def require_elimination_mode(mode: ProfileMode, params: ModelParams) -> None:
    """Refuse (GameError) an elimination mode the built-in profile ``mode``
    is not played under: joint consent is for the cooperative one only."""
    if mode is ProfileMode.COOPERATIVE_INEFFICIENT:
        if params.elimination_mode is not EliminationMode.COOPERATIVE:
            raise GameError("cooperative profile requires cooperative elimination mode")
    elif params.elimination_mode is not EliminationMode.UNILATERAL:
        raise GameError(f"{mode.value} profile requires unilateral elimination mode")


class _ProfileFields(NamedTuple):
    mode: ProfileMode
    params: ModelParams
    custom_eliminate: Optional[Callable[[int, float, bool], bool]] = None
    custom_eliminate_d: Optional[Callable[[int, float, bool], bool]] = None
    custom_offer: Optional[Callable[[int, float, bool], float]] = None
    custom_accept: Optional[Callable[[int, float, bool, float], bool]] = None


class StrategyProfile(_ProfileFields):
    """A strategy pair for the stage game, as a named tuple.

    Built-in modes reproduce the threshold-backed constructions: both sides
    play the indifference bookkeeping on path, and the responder treats any
    off-prescription elimination decision as a war trigger (see
    ``acceptance_cutoff``, the one statement of that rule).  Custom profiles
    supply callbacks, which ``simulate`` calls directly; they are simulated,
    not solved, and their ``offer`` and ``accepts`` raise GameError.

    A profile checks itself where it is built, and is played under its own
    params.  Every profile refuses invalid parameters or overflowing margins
    (InvalidParamsError).  A built-in one then refuses an elimination mode
    it cannot be played under (GameError) and a point where ``classify``
    does not report it (ProfileExistenceError); it reads its offers from the
    ``ThresholdSet`` of its params, computed once, by that check.  A custom
    one needs its offer and accept callbacks, and may have no responder
    elimination callback under unilateral elimination (GameError);
    ``simulate`` refuses an offer outside [0, y] (GameError) that its
    callback makes, rather than moving it into range.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        mode, params = self.mode, self.params
        require_valid(params)
        if mode is ProfileMode.CUSTOM:
            if self.custom_offer is None:
                raise GameError("custom profile lacks an offer callback")
            if self.custom_accept is None:
                raise GameError("custom profile lacks an accept callback")
            if (self.custom_eliminate_d is not None and
                    params.elimination_mode is EliminationMode.UNILATERAL):
                raise GameError("unilateral mode forbids elim_d")
            return self
        require_elimination_mode(mode, params)
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
        return self

    # through __new__, so _replace checks too (the inherited _make skips it)
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: StrategyProfile is immutable")

    @property
    def elim_period(self) -> int:
        """Period whose elimination stage removes the barrier on path."""
        if self.mode is ProfileMode.CUSTOM:
            raise GameError("custom profiles prescribe via callbacks")
        return 1 if self.mode is ProfileMode.EFFICIENT_PEACE else 2

    def prescribed_votes(self, t: int, barrier_present: bool) -> tuple[bool, Optional[bool]]:
        """(proposer vote, responder vote).  The responder votes only under
        joint consent, and then always consents; otherwise its vote is None."""
        if not barrier_present:
            return False, None
        cooperative = self.mode is ProfileMode.COOPERATIVE_INEFFICIENT
        return t >= self.elim_period, (True if cooperative else None)

    @functools.cached_property
    def thresholds(self) -> ThresholdSet:
        return compute_thresholds(self.params)

    def acceptance_cutoff(self, t: int, barrier_after: bool) -> float:
        """Smallest offer the responder accepts at this node; may be negative.

        On the profile's path (barrier standing after the elimination stage
        exactly while t < ``elim_period``) it is the raw indifference
        transfer of the stationary bookkeeping.  Off the path it is inf: any
        departure from the prescribed elimination decision is met with war,
        whatever is offered."""
        if barrier_after != (t < self.elim_period):
            return math.inf
        ts = self.thresholds
        if t == 1:
            return ts.offer1_inefficient if barrier_after else ts.offer1_efficient
        return ts.offer_stationary

    def offer(self, t: int, y: float, barrier_after: bool) -> float:
        """The cutoff clamped into [0, y].  Off path that is y, which the
        responder rejects all the same."""
        return min(max(self.acceptance_cutoff(t, barrier_after), 0.0), y)

    def accepts(self, t: int, y: float, barrier_after: bool, offer: float) -> bool:
        return offer >= self.acceptance_cutoff(t, barrier_after)


def analytic_payoffs(params: ModelParams,
                     mode: ProfileMode) -> tuple[float, float]:
    """Present values (proposer, responder) of the on-path play.

    The values price the offers ``StrategyProfile.offer`` makes, the raw
    indifference transfers clamped into [0, y], through the calls
    ``simulate`` makes, so they match the simulator exactly; the raw
    transfers, which peg the responder at its war value even where that
    takes a negative offer, stay on the ``ThresholdSet``.  A profile that
    ``StrategyProfile(mode, params)`` refuses is refused here alike.
    """
    profile = StrategyProfile(mode, params)
    delta = params.delta
    kept = profile.elim_period > 1
    y1 = params.h0 if kept else 1.0
    x1, xs = profile.offer(1, y1, kept), profile.offer(2, 1.0, False)
    v_d = x1 + delta * xs / (1.0 - delta)
    v_r = (y1 - x1) + delta * (1.0 - xs) / (1.0 - delta)
    return v_r, v_d


class SimStats(NamedTuple):
    n_runs: int
    horizon: int
    payoff_r_mean: float
    payoff_r_se: float
    payoff_d_mean: float
    payoff_d_se: float
    war_frequency: float
    elimination_periods: dict
    tail_bound: float


def _split_flows(y: float, offer: float) -> tuple[float, float]:
    # flows must sum to y exactly; the responder's booked flow absorbs the
    # subtraction rounding (at most 1 ulp off the nominal offer)
    flow_r = y - offer
    flow_d = y - flow_r
    return flow_r, flow_d


def _trace_record(run: int, state_t: int, y: float, actions: ActionRecord,
                  flow_r: float, flow_d: float, war: bool) -> dict:
    # a custom callback may return numpy scalars, which json cannot write:
    # each vote is written as a bool (or null), and the offer and the flows
    # it sets as floats
    elim_d = actions.elim_d
    return {"run": run, "period": state_t, "y": y,
            "elim_r": bool(actions.elim_r),
            "elim_d": None if elim_d is None else bool(elim_d),
            "offer": float(actions.offer),
            "response": actions.response.value, "flow_r": float(flow_r),
            "flow_d": float(flow_d), "war": war}


def _simulate_onpath(profile: StrategyProfile, horizon: int,
                     trace: Optional[IO[str]]) -> tuple:
    """Built-in profiles never reach the war lottery and their on-path flows
    are deterministic, so one trajectory prices every run exactly.  From the
    period after elimination on, play is stationary: each later period
    repeats that period's votes, resource, offer and flows and only adds its
    discounted flow.  ``simulate`` builds the ``SimStats`` it returns."""
    params = profile.params
    delta = params.delta
    v_r = 0.0
    v_d = 0.0
    elim_period = profile.elim_period
    for t in range(1, horizon + 1):
        if t <= elim_period + 1:
            vote_r, vote_d = profile.prescribed_votes(t, t <= elim_period)
            barrier_after = t < elim_period
            y = params.h0 if barrier_after else 1.0
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
    # a horizon shorter than elim_period ends with the barrier standing
    elim_at = elim_period if horizon >= elim_period else None
    return v_r, 0.0, v_d, 0.0, 0.0, {elim_at: 1.0}


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
    entries.  With no period left both ways give 0.0 and draw nothing."""
    delta = params.delta
    if not barrier_at_war:
        # full resource every remaining period
        return delta * (1.0 - delta ** periods_left) / (1.0 - delta)
    flows = dist.sample(rng, periods_left)
    if params.rho > 0.0:
        landed = rng.random(periods_left) < params.rho
        if landed.any():
            flows[landed.argmax():] = 1.0
    return float(flows @ discounts[:periods_left])


def _simulate_general(profile: StrategyProfile, dist: BarrierDistribution,
                      horizon: int, n_runs: int, seed: Optional[int],
                      trace: Optional[IO[str]]) -> tuple:
    """Play every custom run, period by period; ``simulate`` builds SimStats."""
    params = profile.params
    cooperative = params.elimination_mode is EliminationMode.COOPERATIVE
    eliminate, eliminate_d = profile.custom_eliminate, profile.custom_eliminate_d
    propose, respond = profile.custom_offer, profile.custom_accept
    import numpy as np
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
            # votes while the barrier stands; a side without a callback keeps
            # it, and the responder votes only under joint consent
            standing = state.barrier_present
            vote_r = (eliminate(t, state.y, standing) if standing and eliminate
                      else False)
            vote_d = (eliminate_d(t, state.y, standing)
                      if standing and eliminate_d
                      else False if cooperative and standing else None)
            y_eff, barrier_after = resolve_elimination(state, vote_r, vote_d,
                                                       params)
            if standing and not barrier_after:
                elim_at = t
            offer = propose(t, y_eff, barrier_after)
            accept = respond(t, y_eff, barrier_after, offer)
            actions = ActionRecord(
                vote_r, offer, Response.ACCEPT if accept else Response.REJECT,
                vote_d)
            outcome = step(state, actions, params, dist, rng)
            war = outcome.war_occurred
            flow_r, flow_d = (0.0, 0.0) if war else _split_flows(y_eff, offer)
            if trace is not None:
                trace.write(json.dumps(_trace_record(
                    i, t, y_eff, actions, flow_r, flow_d, war)) + "\n")
            disc = delta ** (t - 1)
            if war:
                spoils = outcome.y + _war_continuation(
                    params, dist, outcome.barrier_present, horizon - t, rng,
                    discounts)
                win_r, win_d = ((0.0, spoils) if outcome.winner == "D"
                                else (spoils, 0.0))
                v_r += disc * (win_r - params.c_R)
                v_d += disc * (win_d - params.c_D)
                wars += 1
                break
            v_r += disc * flow_r
            v_d += disc * flow_d
            state = outcome
        payoff_r[i] = v_r
        payoff_d[i] = v_d
        elim_counts[elim_at] = elim_counts.get(elim_at, 0) + 1
    se_r = float(payoff_r.std(ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else 0.0
    se_d = float(payoff_d.std(ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else 0.0
    return (float(payoff_r.mean()), se_r, float(payoff_d.mean()), se_d,
            wars / n_runs,
            {k: v / n_runs for k, v in sorted(
                elim_counts.items(), key=lambda kv: (kv[0] is None, kv[0]))})


def simulate(profile: StrategyProfile, params: ModelParams,
             dist: BarrierDistribution, horizon: int, n_runs: int,
             seed: Optional[int] = None,
             trace: Optional[IO[str]] = None) -> SimStats:
    """Monte Carlo estimate of discounted payoffs under a strategy profile.

    A profile checks itself, and its params, when it is built, so it needs
    no further check here; it must be simulated under the parameters it was
    built for (GameError otherwise).  Runs draw independent generator
    streams from the master seed; built-in profiles take a deterministic
    fast path since their on-path play never touches the draws.  Custom
    profiles step period by period, one barrier draw per period the barrier
    stands; a run that ends in war draws its whole postwar path in one call,
    so after the war draw its stream holds every postwar barrier value
    first, then the renormalization coins.  A custom offer outside [0, y]
    raises GameError.  ``trace`` receives one JSON line per period of every
    custom run, runs in order, or of the one built-in trajectory.  Both
    paths return the six statistics they measure; ``SimStats`` is built here.
    """
    if horizon < 1 or n_runs < 1:
        raise ValueError("horizon and n_runs must be at least 1")
    if profile.params != params:
        raise GameError("a profile must be simulated under the parameters "
                        "it was built for")
    require_mean_matches(dist, params)
    measured = (_simulate_general(profile, dist, horizon, n_runs, seed, trace)
                if profile.mode is ProfileMode.CUSTOM
                else _simulate_onpath(profile, horizon, trace))
    delta = params.delta
    return SimStats(n_runs, horizon, *measured,
                    tail_bound=delta ** horizon * 1.0 / (1.0 - delta))
