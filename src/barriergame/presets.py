"""Named illustrative parameter presets.

Numbers are illustrative only; they encode qualitative directions (barrier
severity, war costs, size of the power shift), not calibrated magnitudes.
"""
from __future__ import annotations

from typing import NamedTuple

from .params import ModelParams


class Preset(NamedTuple):
    name: str
    params: ModelParams
    annotation: str


_PRESETS = {p.name: p for p in (
    Preset(
        name="demo-b",
        params=ModelParams(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6,
                           c_R=1.0, c_D=25.0),
        annotation=("worked benchmark point: barrier-sustained peace is "
                    "feasible while barrier-free peace is not; illustrative, "
                    "not calibrated"),
    ),
    Preset(
        name="pre-wto",
        params=ModelParams(delta=0.9, p=0.4, p1=0.75, mu=0.5, h0=0.45,
                           c_R=1.5, c_D=12.0),
        annotation=("severe trade frictions, costly conflict, moderate power "
                    "shift: peace rests on the barrier staying up; "
                    "illustrative, not calibrated"),
    ),
    Preset(
        name="post-wto",
        params=ModelParams(delta=0.9, p=0.15, p1=0.75, mu=0.97, h0=0.9,
                           c_R=1.0, c_D=6.0),
        annotation=("frictionless market, cheap conflict, fast power shift: "
                    "preventive war is unavoidable; illustrative, not "
                    "calibrated"),
    ),
)}


def get_preset(name: str) -> Preset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")


def list_presets() -> list[Preset]:
    return [_PRESETS[k] for k in sorted(_PRESETS)]
