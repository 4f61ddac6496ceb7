"""One checker for config keys declared on dataclass fields, each with a kind and a range."""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError


def _is_finite(value) -> bool:
    if isinstance(value, int):  # math.isfinite overflows on an integer beyond the float range
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real) and math.isfinite(value)


# kind -> (test of a value, what a value must be); "floats" is stored as a tuple
KINDS = {
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (lambda v: isinstance(v, numbers.Integral) and type(v) is not bool, "an integer"),
    "float": (_is_finite, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str|null": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "floats": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3
               and all(map(_is_finite, v)), "three finite numbers"),
}


@dataclass(frozen=True)
class Spec:
    """A key's kind (a KINDS key or "array") and range: ge <= value, gt < value, value <= le."""

    kind: str
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    choices: tuple = ()
    shape: tuple[int, ...] = ()

    def check(self, name: str, value):
        """The value as the field stores it, or a ``ConfigError`` naming the rule."""
        if self.kind == "array":
            want = f"a finite number array of shape {self.shape}"
            try:  # a ragged array's cells are lists; numpy refuses deep nesting
                cells = np.array(value, dtype=object)
                ok = cells.shape == self.shape and all(map(_is_finite, cells.flat))
            except (ValueError, RuntimeError):
                ok = False
            converted = value
            if ok:  # a read-only copy, so the checked values cannot change later
                converted = np.array(value, dtype=np.float64)
                converted.flags.writeable = False
        else:
            fits, want = KINDS[self.kind]
            ok = fits(value)
            converted = tuple(value) if ok and self.kind == "floats" else value
        if ok and self.choices:
            ok, want = value in self.choices, f"one of {self.choices}"
        bounds = [(op, bound, holds) for op, bound, holds in ((">=", self.ge, operator.ge),
                  (">", self.gt, operator.gt), ("<=", self.le, operator.le)) if bound is not None]
        if bounds:  # compared only once the kind fits
            ok = ok and all(holds(value, bound) for _, bound, holds in bounds)
            want += " " + " and ".join(f"{op} {bound}" for op, bound, _ in bounds)
        if not ok:
            raise ConfigError(f"{name} must be {want}, got {shown(value)}")
        return converted


def shown(value) -> str:
    """``value`` as an error message prints it: at most 40 characters."""
    try:
        return f"{value!r:.40}"
    except ValueError:  # an integer with more digits than Python will print
        return "an integer too long to print"


def declared(kind: str, default=MISSING, *, default_factory=MISSING, **rule):
    """A JSON-settable field, held to ``Spec(kind, **rule)`` by ``check_fields``."""
    return field(default=default, default_factory=default_factory,
                 metadata={"spec": Spec(kind, **rule)})


def specs(cls) -> dict[str, Spec]:
    """The declared fields of a config dataclass, by name."""
    return {f.name: f.metadata["spec"] for f in fields(cls) if "spec" in f.metadata}


def check_fields(obj) -> None:
    """Check every declared field of the frozen ``obj`` and store the value as converted."""
    for name, spec in specs(type(obj)).items():
        object.__setattr__(obj, name, spec.check(name, getattr(obj, name)))
