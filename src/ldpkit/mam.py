"""Minimum-action paths to a target state, and the cost landscape they trace.

A path from the rest state at time -T to a target at time 0 is scored by
the quadratic action; minimizing over the interior states with both
endpoints pinned gives the cheapest transition at that horizon.  Sending
T to infinity through a horizon schedule, warm-starting each longer
window from the previous minimizer, turns the finite-horizon minima into
the transition cost from rest, which is also the rate at which the
stationary distribution's mass decays near the target as the noise
strength goes to zero.

Each control v_i depends on the two states u_i and u_{i+1} only.  The
descent is a Levenberg-Marquardt-damped Gauss-Newton iteration, stopped
on the exact gradient of the discretized functional.  Each trial step is
solved over the controls rather than the states: the system has K x K
blocks on the noise modes, so it is one banded Cholesky solve with lower
bandwidth 2K - 1, whatever the state dimension.  The solve is
scipy.linalg.solveh_banded, imported at the first Gauss-Newton step rather
than with the module (about 0.23 s and 28 MiB in a fresh process; see
solveh_banded), so a process that solves no horizon never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .action import action, control_jacobian, value_and_gradient
from .errors import ConfigurationError, InputError, OptimizationStalledError
from .grids import TimeGrid, _as_int, check_horizons, check_positive
from .integrate import Path, check_state, integrate_skeleton
from .models import ModelSpec

# a horizon is solved once every interior gradient entry is this small
_GTOL = 1e-6
_MAX_ITER = 100  # accepted steps per horizon
# Levenberg-Marquardt damping, relative to the largest Gauss-Newton diagonal
_DAMP_START, _DAMP_FLOOR, _DAMP_CEIL = 1e-6, 1e-14, 1e8


@dataclass(frozen=True)
class QPResult:
    """Horizon-continuation record for one target state."""

    target: np.ndarray
    horizons: list
    values: list
    iterations: list
    converged_value: float
    converged: bool
    warning: Optional[str]
    defect: float
    path: Path

    def to_dict(self) -> dict:
        return {
            "target": [float(x) for x in np.atleast_1d(self.target)],
            "horizons": [float(t) for t in self.horizons],
            "values": [float(v) for v in self.values],
            "iterations": [int(n) for n in self.iterations],
            "converged_value": float(self.converged_value),
            "converged": self.converged,
            "warning": self.warning,
            "defect": float(self.defect),
        }


def _initial_states(model: ModelSpec, target: np.ndarray, grid: TimeGrid,
                    init: Union[Path, str]) -> np.ndarray:
    steps = grid.steps
    if isinstance(init, Path):
        if init.dim != model.dim:
            raise InputError(
                f"warm-start path dimension {init.dim} does not match "
                f"model '{model.name}'"
            )
        states = np.column_stack([np.interp(grid.times(), init.grid.times(), u)
                                  for u in init.states.T])
    elif init == "linear":
        states = np.linspace(0.0, 1.0, steps + 1)[:, None] * target[None, :]
    elif init == "reversed-flow":
        # the forward flow from the target decays toward rest; played backwards
        # it is a candidate transition path (m Heun substeps per step keep it stable)
        m = 1 if model.max_stable_dt is None else int(np.ceil(grid.dt / model.max_stable_dt))
        forward = integrate_skeleton(model, target,
                                     TimeGrid(0.0, grid.t_end - grid.t_start, steps * m))
        states = forward.states[::-m].copy()
    else:
        raise InputError(
            f"init must be 'linear', 'reversed-flow' or a Path, got {init!r}"
        )
    states[0] = 0.0
    states[steps] = target
    return states


def solveh_banded(ab, b, **kwargs):
    """scipy.linalg.solveh_banded, with scipy.linalg imported at the first Gauss-Newton
    step rather than with ldpkit.

    In a fresh process with numpy loaded, that import takes about 0.23 s and 28 MiB of
    resident memory (scipy 1.17), so a process that solves no horizon does not pay it.
    _gn_step looks this name up at each solve.
    """
    import scipy.linalg

    return scipy.linalg.solveh_banded(ab, b, **kwargs)


def _gn_step(v: np.ndarray, A: np.ndarray, B: np.ndarray, dt: float,
             shift: float) -> np.ndarray:
    """Damped Gauss-Newton step -(dt J^T J + shift I)^{-1} dt J^T v, solved over the controls.

    J maps the interior states to the controls: v_i has blocks A_i at u_i and
    B_i at u_{i+1}, with A_0 and B_{steps-1} dropped at the pinned endpoints.
    The same step is -J^T y with (dt J J^T + shift I) y = dt v, a
    block-tridiagonal system of K x K blocks whose lower band is 2K rows.
    Returns the step for the interior states, shape (steps - 1, dim).
    """
    steps, K = v.shape
    Bt = B.transpose(0, 2, 1)
    cols = np.zeros((steps, 3 * K, K))  # block column i: rows i*K .. i*K + 3K
    cols[1:, :K] = A[1:] @ A[1:].transpose(0, 2, 1)
    cols[:-1, :K] += B[:-1] @ Bt[:-1]
    cols[:-1, K:2 * K] = A[1:] @ Bt[:-1]
    cols *= dt
    d, b = np.ogrid[:2 * K, :K]
    band = cols[:, b + d, b].transpose(1, 0, 2).reshape(2 * K, steps * K)
    band[0] += shift
    y = solveh_banded(band, dt * v.ravel(), lower=True, check_finite=False).reshape(steps, K)
    return -(y[1:, None, :] @ A[1:] + y[:-1, None, :] @ B[:-1])[:, 0]


def solve_horizon(model: ModelSpec, target, T: float, grid_steps: int,
                  init: Union[Path, str] = "linear"):
    """minimize_action with the solver's verdict: (path, value, iterations, met_gtol).

    A damped Gauss-Newton descent of the interior states; iterations counts
    accepted steps, and each step tries dampings upward, one banded solve apiece.
    """
    if not (model.autonomous and model.zero_equilibrium):
        raise ConfigurationError(
            f"'{model.name}' is not autonomous with rest state 0; transition costs "
            "from rest are defined here only for such models"
        )
    target = check_state(model, target, "target")
    check_positive(T, "horizon")
    grid_steps = _as_int(grid_steps, "step count")
    if grid_steps < 2:
        raise InputError(f"need at least 2 steps to have interior states, got {grid_steps}")
    grid = TimeGrid(-float(T), 0.0, grid_steps)
    path = Path(grid, _initial_states(model, target, grid, init))
    value, grad = value_and_gradient(model, path)
    damp = _DAMP_START
    for it in range(_MAX_ITER):
        g = grad[1:-1]
        if np.max(np.abs(g)) <= _GTOL:
            return path, value, it, True
        v, A, B = control_jacobian(model, path)
        # the largest diagonal entry of dt J^T J
        scale = grid.dt * np.max(np.sum(A[1:] ** 2, axis=1) + np.sum(B[:-1] ** 2, axis=1))
        while True:
            try:
                step = _gn_step(v, A, B, grid.dt, damp * scale)
            except np.linalg.LinAlgError:
                step = np.full_like(g, np.nan)
            trial = path.states.copy()
            trial[1:-1] += step
            if np.all(np.isfinite(trial)):
                trial = Path(grid, trial)
                trial_value, trial_grad = value_and_gradient(model, trial)
                if trial_value < value:
                    # Nielsen's update from actual over predicted decrease
                    gain = (value - trial_value) / (0.5 * np.vdot(step, damp * scale * step - g))
                    damp = max(damp * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3),
                               _DAMP_FLOOR)
                    path, value, grad = trial, trial_value, trial_grad
                    break
            damp *= 10.0
            if damp > _DAMP_CEIL:
                raise OptimizationStalledError(
                    f"no damped Gauss-Newton step lowers the action below {value:.6g} "
                    f"at horizon {T} after {it} steps",
                    path=path, value=value)
    return path, value, _MAX_ITER, bool(np.max(np.abs(grad[1:-1])) <= _GTOL)


def minimize_action(model: ModelSpec, target, T: float, grid_steps: int,
                    init: Union[Path, str] = "linear"):
    """Cheapest discrete path from rest at -T to `target` at 0.

    Returns (path, value).  The optimizer stopping at its iteration cap
    still returns the best path found; damping past its ceiling without
    a decrease raises OptimizationStalledError carrying the best iterate.
    """
    return solve_horizon(model, target, T, grid_steps, init)[:2]


def default_t_schedule(model: ModelSpec) -> list[float]:
    """Horizons {4, 6, 8} relaxation times; enough for the shipped models."""
    r = model.relax_rate
    return [4.0 / r, 6.0 / r, 8.0 / r]


def quasipotential(model: ModelSpec, target, T_schedule=None,
                   steps_per_unit: float = 50.0, tol: float = 1e-3) -> QPResult:
    """Transition cost from rest via horizon continuation.

    Minimizes at each horizon in turn, warm-starting from the previous
    minimizer held at rest on the extension; stops early, converged, once
    consecutive values agree within `tol` and the optimizer met its
    gradient tolerance at both horizons.  Values can only decrease with T,
    so an increase beyond optimizer precision is flagged and stops the
    schedule unconverged.  A final path whose action defect exceeds `tol`
    is not reachable by any control, so it is never reported converged.
    """
    if T_schedule is None:
        T_schedule = default_t_schedule(model)
    T_schedule = check_horizons(T_schedule, 1, "T_schedule")
    check_positive(steps_per_unit, "steps_per_unit")
    check_positive(tol, "tol")

    horizons, values, iterations, solved, notes = [], [], [], [], []
    converged = False
    path: Union[Path, str] = "linear"
    for T in T_schedule:
        grid_steps = max(2, int(round(T * steps_per_unit)))
        path, value, nit, met_gtol = solve_horizon(model, target, T, grid_steps, path)
        horizons.append(T)
        values.append(value)
        iterations.append(nit)
        solved.append(met_gtol)
        if len(values) >= 2:
            if values[-1] > values[-2] + 1e-8 + 1e-5 * abs(values[-2]):
                notes.append(
                    f"value increased from {values[-2]:.6g} to {values[-1]:.6g} "
                    f"between horizons {horizons[-2]} and {horizons[-1]}; "
                    "the optimizer appears trapped"
                )
                break
            if abs(values[-1] - values[-2]) < tol and solved[-1] and solved[-2]:
                converged = True
                break
    missed = [f"{T:.6g}" for T, ok in zip(horizons, solved) if not ok]
    if missed:
        notes.insert(0, f"optimizer stopped at its {_MAX_ITER}-step cap above gtol "
                        f"{_GTOL:g} at horizon(s) {', '.join(missed)}")
    defect = action(model, path).defect
    if defect > tol:
        converged = False
        notes.append(f"final path has defect {defect:.3g} above tol {tol:g}")
    # the path's pinned end state is the checked target
    return QPResult(target=path.states[-1], horizons=horizons, values=values,
                    iterations=iterations, converged_value=values[-1],
                    converged=converged, warning="; ".join(notes) or None,
                    defect=defect, path=path)
