"""Uniform time grids, the rules every input value is checked by, and the one rule
every result record is written out by.

Every trajectory, noise record and control in the toolkit lives on a
uniform grid [t_start, t_end] with `steps` increments.  States are sampled
at the steps+1 grid points; increments and controls are attached to the
steps left endpoints.

The command line, the model catalogue and the library functions decide
what an integer, a finite real, a positive real, a real vector and a
per-step table are by the functions here, and by no other code.  Every
result record (PullbackDiag, QPResult, ActionReport, SlopeFit,
HypothesisReport) takes record_dict as its to_dict.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import InputError

# Two grids are considered aligned when their step indices agree to this
# relative tolerance; guards against accumulated floating point drift in
# t_start/dt arithmetic, not against genuinely mismatched grids.
_ALIGN_RTOL = 1e-9


def _as_int(value, context: str) -> int:
    """value as an int; InputError unless it is a Python or numpy integer (bool is not)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{context} must be an integer, got {type(value).__name__} {value!r}")
    return int(value)


def _is_number(value) -> bool:
    """A Python or numpy int or float that a float64 holds; a bool or str is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    # exact for a Python int, which float() would overflow past the float range; a numpy
    # number is not compared, as numpy casts the bound into its dtype (float32 overflows)
    return not isinstance(value, int) or abs(value) <= sys.float_info.max


def _as_real(value, context: str) -> float:
    """value as a float; InputError unless it is a finite number (_is_number)."""
    if not (_is_number(value) and math.isfinite(value)):
        raise InputError(f"{context} must be a finite number, "
                         f"got {type(value).__name__} {value!r}")
    return float(value)


def _is_numbers(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(_is_numbers(v) for v in value)
    return _is_number(value)


def _as_reals(value, context: str) -> np.ndarray:
    """value as a float64 array; InputError unless it is a number, an integer or float
    ndarray, or a list or tuple of these.  Entries may be infinite or NaN."""
    try:
        if _is_numbers(value):
            return np.asarray(value, dtype=np.float64)
    except ValueError:  # lists nested to uneven depths or lengths
        pass
    raise InputError(f"{context} must be numbers, got {value!r}")


def _as_table(values, steps: int, context: str) -> np.ndarray:
    """A per-step table as float64; InputError unless it is 2-D with `steps` rows of
    finite numbers."""
    table = _as_reals(values, context)
    if table.ndim != 2 or table.shape[0] != steps:
        raise InputError(f"{context} must have shape (steps, K) = ({steps}, K), "
                         f"got {table.shape}")
    if not np.all(np.isfinite(table)):
        raise InputError(f"{context} contains non-finite values")
    return table


def _plain(value):
    """value with numpy arrays and scalars, also inside lists, as Python lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def record_dict(record) -> dict:
    """A result record's fields in declaration order, as JSON values (_plain).  A nested
    record, such as a Path or a Control, is left out: it is written as its own CSV."""
    return {f.name: _plain(getattr(record, f.name)) for f in fields(record)
            if not is_dataclass(getattr(record, f.name))}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with `steps` equal increments."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        _as_real(self.t_start, "grid start")
        _as_real(self.t_end, "grid end")
        if self.t_end <= self.t_start:
            raise InputError(
                f"grid needs t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        steps = _as_int(self.steps, "grid step count")
        if steps < 1:
            raise InputError(f"grid needs a positive integer step count, got {steps}")
        object.__setattr__(self, "steps", steps)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def times(self) -> np.ndarray:
        """All steps+1 grid points."""
        return self.t_start + self.dt * np.arange(self.steps + 1)

    def midpoints(self) -> np.ndarray:
        """The steps interval midpoints."""
        return self.t_start + self.dt * (np.arange(self.steps) + 0.5)

    def tail(self, steps: int) -> "TimeGrid":
        """The grid's last `steps` steps, a sub-grid on its lattice ending at t_end;
        InputError unless 1 <= steps <= self.steps."""
        if _as_int(steps, "tail step count") == self.steps:
            return self
        if steps > self.steps:
            raise InputError(f"a tail of {steps} steps does not fit in {self}")
        return TimeGrid(self.t_end - steps * self.dt, self.t_end, steps)

    def index_of(self, t: float) -> int:
        """Grid point index of time t; t must sit on the grid."""
        t = _as_real(t, "time")
        i = whole_steps((t - self.t_start) / self.dt, f"time {t} is not a point of {self}")
        if i < 0 or i > self.steps:
            raise InputError(f"time {t} is not a point of {self}")
        return i


def from_dt(t_start: float, t_end: float, dt: float) -> TimeGrid:
    """Grid on [t_start, t_end] with the step count implied by dt.

    The span must be an integer number of steps (to alignment tolerance);
    a silently stretched dt would break noise-record alignment.
    """
    check_positive(dt, "dt")
    span = _as_real(t_end, "grid end") - _as_real(t_start, "grid start")
    steps = whole_steps(span / dt,
                        f"window [{t_start}, {t_end}] is not an integer number of dt={dt} steps")
    return TimeGrid(t_start, t_end, steps)  # which refuses an empty or reversed window


def same_spacing(a: TimeGrid, b: TimeGrid) -> bool:
    return abs(a.dt - b.dt) <= _ALIGN_RTOL * max(a.dt, b.dt)


def check_positive(x: float, name: str) -> None:
    """InputError unless x is a number (_is_number), positive and finite (NaN is neither)."""
    if not (_is_number(x) and 0 < x < math.inf):
        raise InputError(f"{name} must be positive and finite, got {x!r}")


def check_horizons(horizons, least: int, name: str = "horizons") -> list[float]:
    """`horizons` as floats; InputError unless `least` or more, positive, finite, increasing."""
    values = _as_reals(horizons, name)
    h = values.tolist()
    # one list, strictly increasing from a positive first to a finite last: all finite,
    # and NaN fails
    if values.ndim != 1 or len(h) < least or not (0 < h[0] and h[-1] < math.inf
                                                  and all(a < b for a, b in zip(h, h[1:]))):
        raise InputError(f"{name} must be {least} or more positive, finite and strictly "
                         f"increasing values, got {h}")
    return h


def whole_steps(x: float, message: str) -> int:
    """The step count x as an integer; raises InputError(message) unless it is whole."""
    if not math.isfinite(x):
        raise InputError(message)
    n = int(round(x))
    if abs(x - n) > _ALIGN_RTOL * max(1.0, abs(x)):
        raise InputError(message)
    return n


def uniform_spacing(times: np.ndarray, source) -> float:
    """Spacing of a time column read from `source`; InputError unless uniform."""
    if len(times) < 2:
        raise InputError(f"{source}: need at least two time points to fix the step")
    dts = np.diff(times)
    dt = float(np.mean(dts))
    if not (dt > 0 and np.max(np.abs(dts - dt)) <= _ALIGN_RTOL * max(1.0, abs(dt))):
        raise InputError(f"{source}: time column is not a uniform grid")
    return dt


def ladder_steps(horizons, dt: float, start: float = 0.0, least: int = 0) -> list[int]:
    """Whole dt steps (at least `least`) covering start + n per horizon n, snapped outward;
    InputError unless check_horizons passes 2+ of them, -n <= start, and they stay distinct."""
    horizons = check_horizons(horizons, 2)
    if -horizons[0] > start + 1e-12:
        raise InputError(f"horizon {horizons[0]} starts inside the window from t = {start}")
    steps = [max(least, math.ceil((start + n) / dt - 1e-9)) for n in horizons]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise InputError(f"horizons {horizons} collapse onto the same step counts at dt={dt}")
    return steps


def step_offset(outer: TimeGrid, inner: TimeGrid) -> int:
    """Index of inner.t_start within outer, requiring equal dt and coverage.

    Raises InputError when the grids do not share spacing or the inner
    window leaves the outer one.
    """
    if not same_spacing(outer, inner):
        raise InputError(
            f"grid spacing mismatch: dt={outer.dt} vs dt={inner.dt}"
        )
    off = whole_steps((inner.t_start - outer.t_start) / outer.dt,
                      "grids are not offset by a whole number of steps")
    if off < 0 or off + inner.steps > outer.steps:
        raise InputError(
            f"window [{inner.t_start}, {inner.t_end}] not covered by "
            f"[{outer.t_start}, {outer.t_end}]"
        )
    return off
