"""Independent verification of the built-in profiles and re-derivation of
the thresholds.

Nothing here reads the closed-form threshold formulas: war values come from
the engine's lottery primitives, the postwar market mean is solved from its
renormalization recursion, and continuation values come from the stationary
indifference structure (the responder is held at its war value once the
power shift has passed and the barrier is gone).

`verify_period1` certifies a profile from one table of rows (key,
deviator, deviation value, equilibrium value).  The rows of a deviator,
"R" or "D", are the deviation set that supports the profile: period-1
offer feasibility, the proposer's best accepted offer and its war
deviation at the prescribed barrier state, eliminate-then-fight for the
barrier-keeping profiles, the responder's acceptance rule, and the
stationary phase via one-shot checks.  Rows with deviator None are
diagnostics that answer the cross-elimination deviation with the war
trigger (`keep_trigger`) or a responder that accepts (`*_best_response`).

Each threshold is the root of a period-1 gain, a row, that is affine in the
cost: the feasibility gain for `cbar_D` (efficient path) and `clow_D`
(barrier-keeping path), and for `Clow` the eliminate-then-war gain, which
moves only with c_R + c_D and is solved in c_R at c_D = 0.  The postwar
mean is the fixed point of an affine map x = f(x), the root of the row
f(x) - x.  `_solve` finds each root from three evaluations and checks on
the way that the row is affine and falls; a row that is not is reported as
an anomaly and never solved.  Everything that does not move with the cost
-- the gross war lotteries with the barrier gone and standing, the
stationary flows, the profile's period-1 path -- is computed once, from
the same cost-free terms `verify_period1` reads; no row reads the point's
own costs.  Each bracket is the root plus and minus its rounding band.

The arithmetic is written with int literals, so on `fractions.Fraction`
parameters every row, and so every threshold, is solved exactly.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from . import engine
from .engine import ProfileMode
from .params import (InvalidParamsError, ModelParams, require_valid,
                     sample_valid_points)


class Bracket(NamedTuple):
    """A solved threshold and its rounding band, lo = value - band and
    hi = value + band; all three are nan when the row was not solved."""

    value: float
    lo: float
    hi: float


# the rounding of one evaluation of a row, in ulps of its largest term; the
# exact thresholds of criteria 1 and 11 and of a 20 000-point census lie
# within 0.4 of their half-band from the solved ones
_ULPS = 8
_UNSOLVED = Bracket(math.nan, math.nan, math.nan)


def _solve(f: Callable, scale, slack=0) -> tuple[Bracket, Optional[str]]:
    """Root of a row f that falls affinely in its argument: its bracket and
    an anomaly note or None.

    The secant through f(0) and f(1) gives a first root r0.  The secant
    through f(r0) and the farther of f(0) and f(1), a baseline of at least
    1/2, gives the wide slope s and the refined root r0 - f(r0)/s.  scale,
    at least 1, bounds the magnitudes of the row's terms other than its
    argument, and an evaluation at c is trusted to _ULPS ulps of
    max(scale, |c|).  The row falls when both slopes are negative and the
    wide one is beyond what rounding alone may move it by; it is affine
    when the two slopes agree within what rounding may move both by.  A row
    that does not fall, or is not affine, gets a nan bracket and a note
    saying why.  The bracket is the root plus and minus its band: the
    allowance at r0, plus slack, how far the row's inputs may be off, plus
    |root - r0| times the wide slope's rounding, which the extrapolation
    from r0 carries to the root, all over |s|; plus one ulp of the root.
    """
    f0, f1 = f(0), f(1)
    slope = f1 - f0
    if not slope < 0:
        return _UNSOLVED, f"row does not fall: {f0} at 0, {f1} at 1"
    r0 = f0 / -slope
    a, fa = (0, f0) if 2 * r0 >= 1 else (1, f1)
    fr = f(r0)
    s = (fr - fa) / (r0 - a)
    ulp = math.ulp
    at_ends = _ULPS * ulp(scale)
    at_r0 = _ULPS * ulp(max(scale, abs(r0)))
    # how far rounding alone may move each slope
    narrow = 2 * at_ends + ulp(slope)
    wide = (at_ends + at_r0) / abs(r0 - a) + 2 * ulp(s)
    if not wide < -s:
        return _UNSOLVED, (f"row does not fall beyond rounding: slope {s} on "
                           f"[{a}, {r0}], rounding {wide}")
    if not abs(s - slope) <= narrow + wide:
        return _UNSOLVED, (f"row not affine: slope {slope} on [0, 1], {s} "
                           f"on [{a}, {r0}]")
    root = r0 - fr / s
    band = (at_r0 + slack + abs(root - r0) * wide) / -s + ulp(root)
    return Bracket(root, root - band, root + band), None


def _mean(params: ModelParams) -> tuple[Bracket, Optional[str]]:
    """_solve's bracket and note for the postwar market mean, the fixed
    point of the renormalization recursion
    x = rho + (1-rho)*((1-delta)*mu + delta*x).  Its row f(x) - x is
    written as rho*(1-x) + (1-rho)*(1-delta)*(mu-x), whose terms vanish at
    x = 1 and x = mu, so at rho = 0 the solved mean is mu exactly; its
    terms are at most max(1, |x|)."""
    rho, mu = params.rho, params.mu
    fall = (1 - rho) * (1 - params.delta)
    return _solve(lambda x: rho * (1 - x) + fall * (mu - x), 1)


def postwar_market_mean(params: ModelParams) -> float:
    """Mean postwar market value, solved from its renormalization recursion.
    The map contracts by (1-rho)*delta, so its row falls; the value is nan
    only where that fall, 1 - (1-rho)*delta, is within rounding of zero
    (below about 1e-14), where no float solve can place the mean."""
    return _mean(params)[0].value


class VerificationReport(NamedTuple):
    """A profile's verdict.  `gains` maps each row with a deviator to its
    gain, the deviation value less the equilibrium value, and `diagnostics`
    the rows with none, which never enter the verdict.  `passed` holds when
    neither side's largest gain, `max_gain_r` (proposer) or `max_gain_d`
    (responder), exceeds `tol`, and `feasible` when the feasibility gain
    does not; `best_deviation` names the largest gain."""

    mode: ProfileMode
    passed: bool
    feasible: bool
    max_gain_r: float
    max_gain_d: float
    best_deviation: str
    tol: float
    gains: dict
    diagnostics: dict


class _WarTerms(NamedTuple):
    """Period-1 terms that do not depend on the costs of war, each a number
    of the parameters' type."""

    delta: float
    h0: float
    free: tuple     # gross (proposer, responder) war lotteries, barrier gone
    bar: tuple      # the same with the barrier standing
    d_flow: float   # p/(1-delta): responder's stationary war value before c_D
    r_flow: float   # (1-p)/(1-delta): the complement the proposer keeps

    def cutoff1(self, gross_d, c_D):
        """Offer that holds the responder at its war value: the war payoff
        gross_d - c_D less the discounted stationary continuation
        v_d2 = d_flow - c_D."""
        return (gross_d - c_D) - self.delta * (self.d_flow - c_D)

    def v_eq_r(self, y1, cutoff1, c_D):
        """Proposer's equilibrium value: the period-1 rent plus the
        discounted continuation v_r2 = r_flow + c_D."""
        return (y1 - cutoff1) + self.delta * (self.r_flow + c_D)


def _war_terms(q: ModelParams, m) -> _WarTerms:
    """Cost-free period-1 terms at postwar mean m; the costs of q are not
    read."""
    delta = q.delta
    return _WarTerms(delta, q.h0,
                     engine.war_lottery(q, 1, False, 1, m),
                     engine.war_lottery(q, 1, True, q.h0, m),
                     q.p / (1 - delta), (1 - q.p) / (1 - delta))


def verify_period1(params: ModelParams, mode: ProfileMode,
                   tol: float = 1e-9) -> VerificationReport:
    """Deviation-check one built-in profile at period 1, and its stationary
    phase by exact one-shot checks, from one table of rows (key, deviator,
    deviation value, equilibrium value) in the report's key order.  None as
    a deviation value marks a deviation that cannot be made: a gain of -inf.

    Refuses (GameError) an elimination mode the profile is not played under.
    Works on raw cost values without consulting parameter validation, but
    refuses a point whose war values, continuations or gains are not finite
    (InvalidParamsError naming them): costs near the float maximum overflow
    the gains, and a verdict read off them would mean nothing.
    """
    if mode is ProfileMode.CUSTOM:
        raise ValueError("only built-in profiles can be certified")
    engine.require_elimination_mode(mode, params)
    q = params
    delta = q.delta
    efficient = mode is ProfileMode.EFFICIENT_PEACE
    m = postwar_market_mean(q)
    w = _war_terms(q, m)
    v_d2 = w.d_flow - q.c_D
    v_r2 = w.r_flow + q.c_D
    war_r_free, war_d_free = w.free[0] - q.c_R, w.free[1] - q.c_D
    war_r_bar, war_d_bar = w.bar[0] - q.c_R, w.bar[1] - q.c_D
    # a period-1 path, barrier gone or kept: (resource, cutoff offer,
    # proposer's war value, responder's war value).  The profile plays its
    # own; a cross-elimination deviation reaches the other.
    free = (1, w.cutoff1(w.free[1], q.c_D), war_r_free, war_d_free)
    bar = (q.h0, w.cutoff1(w.bar[1], q.c_D), war_r_bar, war_d_bar)
    (y1, cutoff1, war_r_onpath, war_d_onpath), (y_x, cutoff_x, war_r_x, _) = (
        (free, bar) if efficient else (bar, free))
    v_eq_r = w.v_eq_r(y1, cutoff1, q.c_D)
    # the gross war lotteries once the barrier is gone and power has shifted
    stat_r, stat_d = engine.war_lottery(q, 2, False, 1, m)
    # An accepted offer x is worth (y1 - x) plus a continuation that does
    # not move with x, so its value falls one for one with x (in floats
    # too: each operation rounds monotonically).  The best accepted offer
    # is thus the least one the responder accepts, when it fits in [0, y1].
    least = max(cutoff1, 0)
    rows = (
        ("feasibility", "D", cutoff1, y1),
        # the responder's one-shot checks at the indifference offer (zero
        # up to rounding by construction) and in the stationary phase
        ("responder_period1", "D", war_d_onpath, cutoff1 + delta * v_d2),
        ("responder_stationary", "D", stat_d - q.c_D,
         (v_d2 - delta * v_d2) + delta * v_d2),
        # a rejected offer provokes the war war_period1 prices
        ("offer_scan", "R",
         (y1 - least) + delta * v_r2 if least <= y1 else None, v_eq_r),
        ("war_period1", "R", war_r_onpath, v_eq_r),
        ("proposer_stationary", "R", stat_r - q.c_R, v_r2),
        # for the barrier-keeping profiles, their joint-cost condition
        ("keep_trigger", None, war_r_x, v_eq_r) if efficient
        else ("eliminate_then_war", "R", war_r_x, v_eq_r),
        ("keep_best_response" if efficient else "eliminate_best_response",
         None, max(war_r_x, (y_x - cutoff_x) + delta * v_r2)
         if cutoff_x <= y_x else war_r_x, v_eq_r),
    )
    terms = {"war_r_free": war_r_free, "war_d_free": war_d_free,
             "war_r_bar": war_r_bar, "war_d_bar": war_d_bar,
             "v_d2": v_d2, "v_r2": v_r2}
    gains, diagnostics, sides = {}, {}, {"R": [], "D": [], None: []}
    for key, who, dev, eq in rows:
        if dev is not None:     # None: a deviation that cannot be made
            terms[key] = dev - eq
        (gains if who else diagnostics)[key] = terms.get(key, -math.inf)
        sides[who].append(key)
    nonfinite = [f"{k}={v}" for k, v in terms.items() if not math.isfinite(v)]
    if nonfinite:
        raise InvalidParamsError(
            [f"finite period-1 terms required, got {', '.join(nonfinite)}"])
    max_gain_d = max(map(gains.get, sides["D"]))
    max_gain_r = max(map(gains.get, sides["R"]))
    passed = max_gain_r <= tol and max_gain_d <= tol
    worst = max(gains, key=gains.get)
    if passed:
        best_deviation = "none above tolerance"
    elif worst in sides["D"]:
        best_deviation = (f"responder rejects: war value exceeds the offer "
                          f"by {float(gains[worst]):.6g}")
    else:
        best_deviation = f"proposer {worst} gains {float(gains[worst]):.6g}"
    return VerificationReport(
        mode=mode, passed=passed, feasible=gains["feasibility"] <= tol,
        max_gain_r=max_gain_r, max_gain_d=max_gain_d,
        best_deviation=best_deviation, tol=tol, gains=gains,
        diagnostics=diagnostics)


class OracleThresholds(NamedTuple):
    cbar_D: Bracket
    clow_D: Bracket
    Clow: Bracket
    anomalies: tuple[str, ...] = ()


def oracle_thresholds(params: ModelParams) -> OracleThresholds:
    """Re-derive the three thresholds at one point by solving its period-1
    rows.

    The two cost-of-war thresholds are the roots of the feasibility gain of
    the period-1 offer: the offer that holds the responder at its war value
    less the path's resource (1 on the efficient path, h0 with the barrier
    kept).  The joint threshold is the root of the eliminate-then-fight
    gain at c_D = 0, solved in c_R.  Raises InvalidParamsError on an invalid
    point; a row that is not solved is reported as an anomaly.
    """
    require_valid(params)
    mean, mean_note = _mean(params)
    w = _war_terms(params, mean.value)
    # every cost-free term is nonnegative at a valid point
    scale = max(1, *w.free, *w.bar, w.d_flow, w.r_flow)
    # the mean's band moves the responder's kept-barrier lottery by this
    # much, and the clow_D and Clow rows read that lottery one for one
    slack = engine.war_lottery(params, 1, True, 0, mean.hi - mean.value)[1]
    cbar = _solve(lambda c: w.cutoff1(w.free[1], c) - 1, scale)
    clow = _solve(lambda c: w.cutoff1(w.bar[1], c) - w.h0, scale, slack)
    # the eliminate-then-war gain at c_D = 0, falling one for one in c_R
    v_eq_r = w.v_eq_r(w.h0, w.cutoff1(w.bar[1], 0), 0)
    joint = _solve(lambda c: (w.free[0] - c) - v_eq_r, scale, slack)
    brackets, notes = zip(cbar, clow, joint)
    anomalies = tuple(
        f"{name}: {note}" for name, note
        in zip(("postwar_mean", "cbar_D", "clow_D", "Clow"),
               (mean_note, *notes)) if note)
    return OracleThresholds(*brackets, anomalies)


AGREEMENT_CSV_HEADER = (
    "delta,p,p1,mu,h0,rho,theta,"
    "cbar_D_closed,cbar_D_oracle,clow_D_closed,clow_D_oracle,"
    "Clow_closed,Clow_oracle,max_abs_diff,anomalies")
_AGREEMENT_ROW = "%.12g," * 14 + "%d"


def agreement_rows(n_points: int, seed: Optional[int] = None) -> list[str]:
    """Summary rows comparing the oracle's solved thresholds against the
    closed forms at random valid parameter points; pairs with
    AGREEMENT_CSV_HEADER.  All points come from one block of draws."""
    # local import: the closed forms stay out of the verification machinery
    from .thresholds import compute_thresholds

    points = sample_valid_points(seed, n_points)
    # the oracle runs over every point before the closed forms do: one
    # function at a time measured about 2% faster than alternating the two
    results = [oracle_thresholds(q) for q in points]
    rows = []
    for params, result in zip(points, results):
        ts = compute_thresholds(params)
        diffs = (abs(result.cbar_D.value - ts.cbar_D),
                 abs(result.clow_D.value - ts.clow_D),
                 abs(result.Clow.value - ts.Clow))
        # nan when any bracket has no value: max alone drops a later nan
        diff = math.nan if any(map(math.isnan, diffs)) else max(diffs)
        rows.append(_AGREEMENT_ROW % (
            params.delta, params.p, params.p1, params.mu, params.h0,
            params.rho, params.theta,
            ts.cbar_D, result.cbar_D.value,
            ts.clow_D, result.clow_D.value,
            ts.Clow, result.Clow.value, diff, len(result.anomalies)))
    return rows
