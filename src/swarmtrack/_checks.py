"""The package's two scalar rules: a count is an integer and a real a finite
real number, and a bool is neither (numpy's bool is no number at all)."""

import math
import numbers


def is_count(value, least=None) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (least is None or value >= least))


def is_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def count(name: str, value, least=1) -> int:
    """int(value) of a count >= least (None: any integer), else ValueError."""
    if not is_count(value, least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def real(name: str, value, least=None, strict=False) -> None:
    """ValueError unless value is a real >= least (> if strict); not converted."""
    if not is_real(value) or least is not None and not (
            value > least if strict else value >= least):
        bound = "" if least is None else f"{'>' if strict else '>='} {least} and "
        raise ValueError(f"{name} must be {bound}finite, got {value!r}")
