"""Exact oracle brackets: the repr of every bracket end, so a one-ulp drift
in the solve or its rows fails here even where the agreement golden's .12g
columns cannot see it.

Regenerate the golden (only when a change to the brackets is intended) with
    PYTHONPATH=src:tests python tests/test_oracle_brackets.py
"""
import json
import os

import numpy as np

from barriergame.params import sample_valid_params
from barriergame.oracle import oracle_thresholds
from test_oracle import EDGE_POINTS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "oracle-brackets.json")
SEED = 808
N_POINTS = 200


def _row(result) -> str:
    """One point's brackets as 'value lo hi' reprs, then its anomalies."""
    brackets = "; ".join(
        " ".join(repr(x) for x in (b.value, b.lo, b.hi))
        for b in (result.cbar_D, result.clow_D, result.Clow))
    return " | ".join([brackets, *result.anomalies])


def bracket_record() -> dict:
    rng = np.random.default_rng(SEED)
    points = [sample_valid_params(rng) for _ in range(N_POINTS)] + EDGE_POINTS
    return {"seed": SEED, "points": len(points),
            "brackets": [_row(oracle_thresholds(q)) for q in points]}


def test_brackets_match_golden_exactly():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    record = bracket_record()
    assert record.keys() == golden.keys()
    for key in ("seed", "points"):
        assert record[key] == golden[key], key
    for i, (got, want) in enumerate(zip(record["brackets"],
                                        golden["brackets"])):
        assert got == want, f"point {i}"
    assert len(record["brackets"]) == len(golden["brackets"])


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(bracket_record(), fh, indent=1)
        fh.write("\n")
