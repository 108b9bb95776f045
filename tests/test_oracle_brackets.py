"""Exact oracle brackets: the repr of every bracket end, so a one-ulp drift
in the bisection or its predicates fails here even where the agreement
golden's .12g columns cannot see it.

Regenerate the golden (only when a change to the brackets is intended) with
    PYTHONPATH=src:tests python tests/test_oracle_brackets.py
"""
import json
import os

import numpy as np

from barriergame import oracle
from barriergame.params import sample_valid_params
from barriergame.oracle import oracle_thresholds, oracle_thresholds_batch
from test_oracle import EDGE_POINTS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "oracle-brackets.json")
SEED = 808
N_POINTS = 200
TOLS = (1e-8, 1e-6, 1e-13)
N_SINGLE = 20


def _row(result) -> str:
    """One point's brackets as 'value lo hi' reprs, then its anomalies."""
    brackets = "; ".join(
        " ".join(repr(x) for x in (b.value, b.lo, b.hi))
        for b in (result.cbar_D, result.clow_D, result.Clow))
    return " | ".join([brackets, *result.anomalies])


def _batch_at(points, tol):
    """The batch's brackets with the bisection tolerance set to tol."""
    saved = oracle.SEARCH_TOL
    oracle.SEARCH_TOL = tol
    try:
        return oracle_thresholds_batch(points)
    finally:
        oracle.SEARCH_TOL = saved


def bracket_record() -> dict:
    rng = np.random.default_rng(SEED)
    points = [sample_valid_params(rng) for _ in range(N_POINTS)] + EDGE_POINTS
    return {
        "seed": SEED,
        "points": len(points),
        "batch": {repr(tol): [_row(r) for r in _batch_at(points, tol)]
                  for tol in TOLS},
        # oracle_thresholds now takes the lone float path, not a batch of
        # one; the key keeps its name so the golden stays byte-identical
        "batch_of_one": [_row(oracle_thresholds(q)) for q in
                         points[:N_SINGLE]],
    }


def test_brackets_match_golden_exactly():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    record = bracket_record()
    assert record.keys() == golden.keys()
    for key in ("seed", "points", "batch_of_one"):
        assert record[key] == golden[key], key
    for tol, rows in golden["batch"].items():
        for i, (got, want) in enumerate(zip(record["batch"][tol], rows)):
            assert got == want, f"tol {tol}, point {i}"
        assert len(record["batch"][tol]) == len(rows)


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(bracket_record(), fh, indent=1)
        fh.write("\n")
