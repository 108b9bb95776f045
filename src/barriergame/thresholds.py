"""Closed-form equilibrium thresholds and indifference offers.

:func:`compute_thresholds` evaluates every formula, a pure function of
ModelParams, and the fields of the :class:`ThresholdSet` it returns are the
threshold API.  The postwar-renormalization extension enters through
:func:`effective_mu`, which substitutes for the raw barrier mean in every
war-payoff expression; the power-modification extension enters through theta.  When both are active the substitution composes, and
the result set is labeled ``extension: composed``.
"""
from __future__ import annotations

from typing import NamedTuple

from .params import ModelParams, _power_floor


def effective_mu(params: ModelParams) -> float:
    """Mean value of the postwar market under per-period renormalization.

    Solves x = rho + (1 - rho) * ((1 - delta) * mu + delta * x).
    The endpoints are exact, in the parameters' number type.  At rho=1 the
    formula is 1 exactly, in floats as on Fractions; at rho=0 it is
    (1-delta)*mu / (1-delta), which rounding can move off mu in floats, so
    mu itself is returned there.
    """
    if params.rho == 0.0:
        return params.mu
    rho, delta, mu = params.rho, params.delta, params.mu
    return ((1 - rho) * (1 - delta) * mu + rho) / (1 - (1 - rho) * delta)


def theta_floor(params: ModelParams) -> float:
    """Floor on theta; -inf when mu * p == 0 (any positive theta admissible)."""
    return _power_floor(params.mu, params.p)


class ThresholdSet(NamedTuple):
    """All computed thresholds and derived quantities for one parameter point.

    The offer fields are the one record of the indifference offers: the
    smallest transfers making the responder weakly prefer acceptance in
    period 1 after elimination, in period 1 with the barrier kept, and in
    the stationary phase (full resource, post-shift).  They are the exact
    accounting of the acceptance condition (offer + delta * continuation =
    war value) and may lie outside [0, y]; the played offer is
    ``StrategyProfile.offer``, which clamps them into it and which
    ``simulate`` plays and ``analytic_payoffs`` prices.
    """

    cbar_D: float   # c_D above which barrier-free peace holds; reads no m
    clow_D: float   # c_D above which the appeasement offer fits inside h0
    Clow: float     # c_R + c_D below which eliminate-and-fight beats appeasing
    postwar_mean: float     # m = effective_mu, read by every war payoff
    theta_floor: float
    offer1_efficient: float
    offer1_inefficient: float
    offer_stationary: float
    extension: str


def compute_thresholds(params: ModelParams) -> ThresholdSet:
    """The one evaluator of the closed forms, all from one postwar mean m."""
    delta, p, p1, h0, theta = params.delta, params.p, params.p1, params.h0, params.theta
    c_D = params.c_D
    rho_on, theta_on = params.rho != 0.0, theta != 1.0
    m = effective_mu(params)
    tp1 = theta * p1
    w = 1 - delta   # the weight of one period in a discounted sum
    # shared with the offers: the efficient offer at c_D = 0, and the
    # barrier-keeping offer's postwar war share at m less the stationary p
    free1 = (p1 - delta * p) / w
    kept_rent = delta / w * (m * tp1 - p)
    x1_eff = free1 - w * c_D
    x1_inef = tp1 * h0 - w * c_D + kept_rent
    x_stat = p - w * c_D
    # positional, in ThresholdSet field order
    return ThresholdSet(
        (free1 - 1) / w,
        (kept_rent - (1 - tp1) * h0) / w,
        (1 - p1 - (w * h0 * (1 - tp1) + delta * (1 - m * tp1))) / w,
        m,
        theta_floor(params),
        x1_eff, x1_inef, x_stat,
        ("composed" if rho_on and theta_on else "rho" if rho_on
         else "theta" if theta_on else "baseline"),
    )
