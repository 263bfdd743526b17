"""Uniform time grids.

Every trajectory, noise record and control in the toolkit lives on a
uniform grid [t_start, t_end] with `steps` increments.  States are sampled
at the steps+1 grid points; increments and controls are attached to the
steps left endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Two grids are considered aligned when their step indices agree to this
# relative tolerance; guards against accumulated floating point drift in
# t_start/dt arithmetic, not against genuinely mismatched grids.
_ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with `steps` equal increments."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.t_start) or not np.isfinite(self.t_end):
            raise InputError("grid endpoints must be finite")
        if self.t_end <= self.t_start:
            raise InputError(
                f"grid needs t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        if int(self.steps) != self.steps or self.steps < 1:
            raise InputError(f"grid needs a positive integer step count, got {self.steps}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def times(self) -> np.ndarray:
        """All steps+1 grid points."""
        return self.t_start + self.dt * np.arange(self.steps + 1)

    def midpoints(self) -> np.ndarray:
        """The steps interval midpoints."""
        return self.t_start + self.dt * (np.arange(self.steps) + 0.5)

    def index_of(self, t: float) -> int:
        """Grid point index of time t; t must sit on the grid."""
        i = whole_steps((t - self.t_start) / self.dt, f"time {t} is not a point of {self}")
        if i < 0 or i > self.steps:
            raise InputError(f"time {t} is not a point of {self}")
        return i


def from_dt(t_start: float, t_end: float, dt: float) -> TimeGrid:
    """Grid on [t_start, t_end] with the step count implied by dt.

    The span must be an integer number of steps (to alignment tolerance);
    a silently stretched dt would break noise-record alignment.
    """
    if dt <= 0:
        raise InputError(f"dt must be positive, got {dt}")
    steps = whole_steps((t_end - t_start) / dt,
                        f"window [{t_start}, {t_end}] is not an integer number of dt={dt} steps")
    return TimeGrid(t_start, t_end, steps)  # which refuses an empty or reversed window


def same_spacing(a: TimeGrid, b: TimeGrid) -> bool:
    return abs(a.dt - b.dt) <= _ALIGN_RTOL * max(a.dt, b.dt)


def whole_steps(x: float, message: str) -> int:
    """The step count x as an integer; raises InputError(message) unless it is whole."""
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
    if dt <= 0 or np.max(np.abs(dts - dt)) > _ALIGN_RTOL * max(1.0, abs(dt)):
        raise InputError(f"{source}: time column is not a uniform grid")
    return dt


def ladder_steps(horizons, dt: float, start: float = 0.0, least: int = 0) -> list[int]:
    """Whole dt steps (at least `least`) covering start + n per horizon n, snapped outward;
    InputError unless 2+ horizons are positive, increasing, -n <= start, and stay distinct."""
    horizons = [float(n) for n in horizons]
    if len(horizons) < 2:
        raise InputError(f"need at least two horizons to measure a gap, got {horizons}")
    if horizons[0] <= 0 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise InputError(f"horizons must be positive and strictly increasing, got {horizons}")
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
