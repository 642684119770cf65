"""JSON serialization for CLI reports.

Wire conventions: complex numbers as {"re": ..., "im": ...}, exact
rationals as "p/q" strings, Infinity as {"inf": true}.  Payloads are
rendered with sorted keys so identical runs are byte-identical (timing is
carried in the report but excluded from determinism comparisons).
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np

from . import __version__
from .scalars import Qi
from .sphere import ProjPoint

SCHEMA_VERSION = 1


def fraction_str(fr: Fraction) -> str:
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "-inf" if obj < 0 else "inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, Qi):
        return {"re": fraction_str(obj.re), "im": fraction_str(obj.im)}
    if isinstance(obj, complex):
        return {"re": to_jsonable(float(obj.real)), "im": to_jsonable(float(obj.imag))}
    if isinstance(obj, ProjPoint):
        if obj.is_infinity:
            return {"inf": True}
        return to_jsonable(obj.z if isinstance(obj.z, Qi) else complex(obj.z))
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.complexfloating):
        return to_jsonable(complex(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if dataclasses.is_dataclass(obj):
        return to_jsonable(dataclasses.asdict(obj))
    return str(obj)


def run_report(command: str, config: dict, results, seed, seconds: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": to_jsonable(config),
        "seed": seed,
        "results": to_jsonable(results),
        "timing": {"seconds": round(seconds, 6)},
    }


def render(report: dict, indent: int | None = None) -> str:
    return json.dumps(report, sort_keys=True, indent=indent)

