"""Run configuration: a JSON file with a strict, documented schema.

Top-level keys (unknown keys are rejected):

  scenario          str, one of the scenario names (required)
  scenario_params   object passed to the scenario factory (default {})
  scheme            'standard' | 'dwb' | 'dwb-s' | 'la' | 'la-s'
  order             3 | 5
  flux              'roe' | 'hllc' | 'rusanov'
  n                 int, cells per axis (single runs)
  resolutions       [int, ...] (studies; overrides n)
  cfl               float in (0, 1]
  t_end             finite float >= 0 (defaults to the scenario's final time)
  init              'averages' | 'discrete'
  eps_w             float > 0 with a normal square, CWENO regularization
                    (default dx^2 resp. dx*dy)
  damping           finite float >= 0 (momentum damping rate)
  repetitions       int >= 1 (efficiency studies)
  reference         object: {"kind": "initial"} or
                    {"kind": "fine", "scheme": ..., "order": ..., "n": ...}
  out               str, output directory
"""

import json
from dataclasses import dataclass, field as dc_field

from .errors import ConfigurationError
from .integrate import StepController, check_nonnegative
from .reconstruct import _regularization, check_order
from .runner import check_init

_ALLOWED = {
    "scenario": str,
    "scenario_params": dict,
    "scheme": str,
    "order": int,
    "flux": str,
    "n": int,
    "resolutions": list,
    "cfl": (int, float),
    "t_end": (int, float),
    "init": str,
    "eps_w": (int, float),
    "damping": (int, float),
    "repetitions": int,
    "reference": dict,
    "out": str,
}

_REFERENCE_KEYS = {"kind": str, "scheme": str, "order": int, "n": int}


@dataclass
class RunConfig:
    scenario: str
    scenario_params: dict = dc_field(default_factory=dict)
    scheme: str = "standard"
    order: int = 3
    flux: str = "roe"
    n: int = 64
    resolutions: list = None
    cfl: float = 0.5
    t_end: float = None
    init: str = "averages"
    eps_w: float = None
    damping: float = None
    repetitions: int = 1
    reference: dict = None
    out: str = None

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items()}


def _check_type(name, value, expected):
    # bool is an int subclass, but true/false is never a valid number here
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ConfigurationError(
            f"key {name!r} has type {type(value).__name__}, "
            f"expected {expected}")


def validate_config(raw):
    if not isinstance(raw, dict):
        raise ConfigurationError("configuration must be a JSON object")
    unknown = set(raw) - set(_ALLOWED)
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    if "scenario" not in raw:
        raise ConfigurationError("configuration needs a 'scenario' key")
    for key, value in raw.items():
        _check_type(key, value, _ALLOWED[key])
    if "resolutions" in raw:
        if not all(isinstance(x, int) and not isinstance(x, bool) and x > 0
                   for x in raw["resolutions"]):
            raise ConfigurationError("resolutions must be positive integers")
    if "reference" in raw:
        ref = raw["reference"]
        unknown = set(ref) - set(_REFERENCE_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown reference keys: {sorted(unknown)}")
        for key, value in ref.items():
            _check_type(f"reference.{key}", value, _REFERENCE_KEYS[key])
        if ref.get("kind") not in ("initial", "fine"):
            raise ConfigurationError("reference.kind must be 'initial' or 'fine'")
        if ref["kind"] == "fine" and "n" not in ref:
            raise ConfigurationError("a fine reference needs reference.n")
        check_order(ref.get("order", 3))
    check_order(raw.get("order", 3))
    check_init(raw.get("init", "averages"))
    if raw.get("repetitions", 1) < 1:
        raise ConfigurationError("repetitions must be >= 1")
    if "eps_w" in raw:
        _regularization(raw["eps_w"], None)
    StepController(raw.get("cfl", 0.5), raw.get("t_end", 0.0))
    check_nonnegative("damping", raw.get("damping", 0.0))
    return RunConfig(**raw)


def load_config(path):
    with open(path) as handle:
        return validate_config(json.load(handle))
