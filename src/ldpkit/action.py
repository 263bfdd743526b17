"""Path cost: control recovery and the quadratic action.

A path u pays, per step, half the squared mode-coefficient norm of the
control that drives the skeleton equation through it.  The control is
recovered by a midpoint inversion consistent with the Heun stepper:

    r_i = (u_{i+1} - u_i)/dt - f((u_i+u_{i+1})/2, t_i + dt/2)
    v_i = <r_i, e_k>_H / (c_k b(m_i))        per mode k,

so the discrete action is (1/2) dt sum_i |v_i|^2 and the infimum over an
empty feasible set is infinite: residual components outside the mode
span cannot be produced by any control and are reported as a defect
rather than silently dropped.

The derivative of the recovered controls is written once, a vector-Jacobian
product through the midpoint residual and the diffusion factor: weighted by
dt v_i it is the exact action gradient, and on the K mode-basis rows it gives
control_jacobian's per-step blocks of the Gauss-Newton matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonInvertibleDiffusionError
from .grids import TimeGrid, _as_table, record_dict
from .integrate import Path, _load_table, _save_table
from .models import ModelSpec, drift, h_norm_sq

# diffusion factors smaller than this cannot be divided out
FACTOR_FLOOR = 1e-10


@dataclass(frozen=True)
class Control:
    """Per-step mode coefficients of a control; shape (steps, K).

    sq_norm is the squared L2-in-time norm dt * sum |coeffs|^2 (midpoint
    rule).
    """

    grid: TimeGrid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           _as_table(self.coeffs, self.grid.steps, "control"))

    @property
    def sq_norm(self) -> float:
        return float(self.grid.dt * np.sum(self.coeffs**2))

    @property
    def modes(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class ActionReport:
    """Action value with its per-step decomposition and inversion defect."""

    value: float
    defect: float
    per_step: np.ndarray
    control: Control

    to_dict = record_dict


def _check_path(model: ModelSpec, path: Path) -> None:
    # a row-block path (steps+1, rows, dim) is refused too: rows would mix with modes
    if path.states.ndim != 2 or path.dim != model.dim:
        raise InputError(f"the action of model '{model.name}' takes one path of shape "
                         f"(steps+1, {model.dim}), got states of shape {path.states.shape}")


def _invert(model: ModelSpec, path: Path):
    """Midpoint residuals, mode coefficients, midpoint states and factors."""
    _check_path(model, path)
    u = path.states
    dt = path.grid.dt
    mids = 0.5 * (u[:-1] + u[1:])
    tmid = path.grid.midpoints()
    resid = np.diff(u, axis=0) / dt - drift(model, mids, tmid)
    b = np.atleast_1d(model.diffusion_factor(mids))
    if np.min(np.abs(b)) < FACTOR_FLOOR:
        i = int(np.argmin(np.abs(b)))
        raise NonInvertibleDiffusionError(
            f"diffusion factor |b| = {abs(b[i]):.3e} at step {i} is below "
            f"{FACTOR_FLOOR:.0e}; no control reproduces this path"
        )
    if np.min(model.mode_weights) <= 0:
        raise NonInvertibleDiffusionError("mode weights must be positive to invert")
    proj = model.mass * resid @ model.mode_matrix          # <r, e_k>_H
    coeffs = proj / (model.mode_weights * b[:, None])
    span = proj @ model.mode_matrix.T
    defects = np.sqrt(h_norm_sq(model, resid - span))
    return coeffs, defects, mids, tmid, b


def action(model: ModelSpec, path: Path) -> ActionReport:
    """Half the squared control norm of `path`, with per-step terms.

    defect is the L2-in-time H-norm of the residual component outside the
    mode span; a non-negligible defect means no admissible control
    produces the path exactly and the true cost is infinite.
    """
    coeffs, defects, _, _, _ = _invert(model, path)
    dt = path.grid.dt
    per_step = 0.5 * dt * np.sum(coeffs**2, axis=1)
    value = float(np.sum(per_step))
    defect = float(np.sqrt(dt * np.sum(defects**2)))
    return ActionReport(value=value, defect=defect, per_step=per_step,
                        control=Control(path.grid, coeffs))


def _control_vjp(model: ModelSpec, dt: float, inverted, y):
    """y_i^T dv_i/du_i and y_i^T dv_i/du_{i+1} for per-step weights y on the K controls.

    y has shape (steps, ..., K), or (1, ..., K) for weights every step shares; both
    results have shape (steps, ..., dim).  The rows sum_k y_ik e_k / c_k meet drift_jacT
    once, unbroadcast over steps, and are scaled by mass/b_i afterwards.
    """
    coeffs, _, mids, tmid, b = inverted
    lead = (-1,) + (1,) * (y.ndim - 2)
    rows = (y / model.mode_weights) @ model.mode_matrix.T
    scale = (model.mass / b).reshape(lead + (1,))
    jump = scale * rows / dt
    # the midpoint enters the residual and the factor b_i = b(m_i), half from each end
    jt = model.drift_jacT(mids.reshape(lead + (model.dim,)), tmid.reshape(lead), rows)
    yv = np.sum(y * coeffs.reshape(lead + (model.modes,)), axis=-1)[..., None]
    gb = (model.grad_diffusion_factor(mids) / b[:, None]).reshape(lead + (model.dim,))
    common = -0.5 * (scale * jt + yv * gb)
    return common - jump, common + jump


def action_gradient(model: ModelSpec, path: Path,
                    fixed_endpoints: tuple[bool, bool] = (True, True)) -> np.ndarray:
    """Exact gradient of the discrete action w.r.t. the path states.

    Shape (steps+1, dim); rows for pinned endpoints are zeroed according
    to fixed_endpoints.
    """
    return value_and_gradient(model, path, fixed_endpoints)[1]


def value_and_gradient(model: ModelSpec, path: Path,
                       fixed_endpoints: tuple[bool, bool] = (True, True)):
    """Action value and exact gradient from a single inversion pass."""
    inverted = _invert(model, path)
    coeffs, dt = inverted[0], path.grid.dt
    value = float(0.5 * dt * np.sum(coeffs**2))
    # dS = dt sum_i v_i^T dv_i, and v_i depends on u_i and u_{i+1} only
    left, right = _control_vjp(model, dt, inverted, dt * coeffs)
    grad = np.zeros_like(path.states)
    grad[:-1] = left
    grad[1:] += right
    if fixed_endpoints[0]:
        grad[0] = 0.0
    if fixed_endpoints[1]:
        grad[-1] = 0.0
    return value, grad


def control_jacobian(model: ModelSpec, path: Path):
    """Per-step controls v_i, shape (steps, K), and their exact Jacobians.

    Returns (coeffs, dv_i/du_i, dv_i/du_{i+1}), the Jacobians of shape
    (steps, K, dim).  v_i depends on u_i and u_{i+1} only, so
    dt * sum_i J_i^T v_i is the action gradient and dt * sum_i J_i^T J_i
    its block-tridiagonal Gauss-Newton matrix.
    """
    inverted = _invert(model, path)
    d_left, d_right = _control_vjp(model, path.grid.dt, inverted, np.eye(model.modes)[None])
    return inverted[0], d_left, d_right


def save_control(control: Control, filename) -> None:
    """CSV with one row per step: the step's start time, then the K coefficients."""
    _save_table(filename, control.grid.times()[:-1], control.coeffs, "v")


def load_control(filename) -> Control:
    times, coeffs, dt = _load_table(filename, f"control file {filename}")
    return Control(TimeGrid(float(times[0]), float(times[0]) + len(times) * dt, len(times)),
                   coeffs)
