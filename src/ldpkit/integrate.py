"""Time stepping: Euler-Maruyama for the noisy equation, Heun for the
controlled (skeleton) equation.

    noisy:     x_{i+1} = x_i + dt f(x_i, t_i) + sqrt(eps) B(x_i) dW_i
    skeleton:  explicit trapezoidal step of  u' = f(u, t) + B(u) v,
               with the control held constant over each step.

f is the full drift A u + F(u) + g(t).  The skeleton scheme is the one
the action discretization (midpoint inversion) is consistent with.

Both run on one engine: per CHECK_EVERY steps, the batched sampler's cadence too, one
loop builds the drive by mode_drive, steps it with a kernel (em_advance, heun_advance;
one kick rule b(x) d) and scans for divergence.  It keeps only the run's last `record`
steps, stepping earlier states into one reusable scratch block, so a long run costs the
memory of what it records.  A model may bring its own EM kernel
with em_advance's contract and values (ModelSpec.em_kernel, burgers1d's fused step);
em_stepper is the one place that picks it, for em_step_sde and the batched sampler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, InputError
from .grids import (_ALIGN_RTOL, TimeGrid, _as_int, _as_reals, _as_table, _is_number,
                    check_positive, same_spacing, step_offset, uniform_spacing, whole_steps)
from .models import ModelSpec, drift, h_norm_sq
from .noise import NoisePath

# Trajectories whose H-norm passes this are declared divergent.  Every
# stepping loop draws its drive, steps and tests for it per CHECK_EVERY steps.
BLOWUP_NORM = 1e6
CHECK_EVERY = 256


@dataclass(frozen=True)
class Path:
    """States sampled at all grid points; shape (steps+1, dim), or (steps+1, rows, dim)
    for a block of rows that share the grid."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        states = _as_reals(self.states, "path states")
        if states.ndim not in (2, 3) or states.shape[0] != self.grid.steps + 1:
            raise InputError(
                f"path states must have shape (steps+1, dim) or (steps+1, rows, dim) "
                f"with steps+1 = {self.grid.steps + 1}, got {states.shape}"
            )
        if not np.all(np.isfinite(states)):
            raise InputError("path contains non-finite states")
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def at(self, t: float) -> np.ndarray:
        return self.states[self.grid.index_of(t)]

    def restrict(self, grid: TimeGrid) -> "Path":
        off = step_offset(self.grid, grid)
        return Path(grid, self.states[off : off + grid.steps + 1])


def _save_table(filename, times: np.ndarray, values: np.ndarray, column: str) -> None:
    """CSV of a time column then columns column1, column2, ...: one header line, then
    np.savetxt's rows, a CHECK_EVERY chunk at a time."""
    with open(filename, "w") as fh:
        fh.write("time," + ",".join(f"{column}{i + 1}" for i in range(values.shape[1])) + "\n")
        for i in range(0, len(times), CHECK_EVERY):
            rows = slice(i, i + CHECK_EVERY)
            np.savetxt(fh, np.column_stack([times[rows], values[rows]]), delimiter=",",
                       fmt="%.17g")


def _load_table(filename, source: str):
    """(times, values, dt) of a _save_table CSV; InputError, naming `source`, unless it
    has a value column and a uniform time column of spacing dt."""
    table = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] < 2:
        raise InputError(f"{source}: need a time column plus value columns")
    return table[:, 0], table[:, 1:], uniform_spacing(table[:, 0], source)


def save_path(path: Path, filename) -> None:
    """CSV with a time column and one column per state dimension (one row per state)."""
    if path.states.ndim != 2:
        raise InputError(f"only a one-state path can be saved, got states of shape "
                         f"{path.states.shape}")
    _save_table(filename, path.grid.times(), path.states, "x")


def load_path(filename) -> Path:
    times, states, _ = _load_table(filename, filename)
    return Path(TimeGrid(float(times[0]), float(times[-1]), len(times) - 1), states)


def write_json(record: dict, filename) -> None:
    """A result record, such as a report's to_dict(), as indented JSON."""
    with open(filename, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def check_state(model: ModelSpec, x, what: str = "initial state") -> np.ndarray:
    """x as a float array (a scalar for a one-dimensional model); InputError unless
    it is one finite state of the model."""
    x = np.atleast_1d(_as_reals(x, what))
    if x.shape != (model.dim,):
        raise InputError(
            f"{what} for '{model.name}' must have shape ({model.dim},), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError(f"{what} contains non-finite values")
    return x


def _check_start(model: ModelSpec, x0) -> np.ndarray:
    """x0 as one state (dim,) or a block (rows, dim) of them, each row checked by check_state."""
    x = _as_reals(x0, "initial state")
    if x.ndim == 2 and len(x):
        return np.array([check_state(model, row) for row in x])
    return check_state(model, x)


def check_eps(model: ModelSpec, eps: float) -> None:
    if not (_is_number(eps) and eps >= 0):
        raise InputError(f"eps must be a non-negative number, got {eps!r}")
    if eps > model.eps0:
        raise ConfigurationError(
            f"eps = {eps} exceeds the admissible ceiling {model.eps0} of '{model.name}'"
        )


def check_dt(model: ModelSpec, dt: float) -> None:
    """dt positive, finite and within the alignment tolerance of the stability ceiling."""
    check_positive(dt, "dt")
    ceiling = model.max_stable_dt
    if ceiling is not None and dt > ceiling * (1.0 + _ALIGN_RTOL):
        raise ConfigurationError(
            f"dt = {dt!r} exceeds the explicit stability ceiling {ceiling!r} of '{model.name}'"
        )


def mode_drive(model: ModelSpec, eps: float, inc: np.ndarray, *,
               _overwrite: bool = False) -> np.ndarray:
    """Drive sqrt(eps) * sum_k dW_k c_k e_k of increments (n, steps, K), as (steps, n, dim).

    inc is read step-major, as gaussian_block lays it out (else copied once).
    Unit weights (x*1 = x) and an identity mode matrix's product (a*1 + b*0 = a)
    are exact and skipped; any other product is a fixed-order sum over the modes,
    so a step or a seed rounds alike alone and in a block.  _overwrite scales inc
    itself, for a block no one else holds; caller memory (noise records, control
    tables) is never written.
    """
    n, steps, k = inc.shape
    drive = inc.transpose(1, 0, 2).reshape(steps, n * k)
    out = drive if _overwrite else None
    if np.any(model.mode_weights != 1.0):
        drive = out = np.multiply(drive, np.tile(model.mode_weights, n), out=out)
    drive = np.multiply(drive, np.sqrt(eps), out=out).reshape(steps, n, k)
    if k == model.dim and np.array_equal(model.mode_matrix, np.eye(k)):
        return drive
    return np.einsum("snk,dk->snd", drive, model.mode_matrix, optimize=False)


def blowup_sq(model: ModelSpec, states: np.ndarray) -> np.ndarray:
    """Squared H-norms, inf for non-finite states; past BLOWUP_NORM**2 is divergent."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.nan_to_num(h_norm_sq(model, states), nan=np.inf, posinf=np.inf)


def worst_blowup(model: ModelSpec, states: np.ndarray):
    """Row of the largest H-norm among `states` if it is divergent, else None."""
    sq = blowup_sq(model, states)
    bad = int(np.argmax(sq))
    return bad if sq[bad] > BLOWUP_NORM**2 else None


def _kick(model: ModelSpec, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """b(x) d for each block of len(d) rows of x; with b = 1 the kick 1.0 * d is d itself."""
    return d if model.unit_diffusion else model.diffusion_factor(x).reshape(-1, len(d), 1) * d


def em_advance(model: ModelSpec, x: np.ndarray, times, dt: float,
               drive: np.ndarray, path=None) -> None:
    """Step the C-contiguous state x in place: x + dt f(x, t) + b(x) drive, once per drive step.

    x is (blocks * n, dim), or (dim,) for n = 1; its blocks of n rows share
    drive, (steps, n, dim).  times[i] is step i's start time (times may
    carry one more, the end time).  path[i], if given, gets the state after step i.
    """
    blocks = x.reshape(-1, *drive.shape[1:])  # a view of x
    with np.errstate(over="ignore", invalid="ignore"):
        for i, d in enumerate(drive):
            kick = _kick(model, x, d)
            x += dt * drift(model, x, times[i])
            blocks += kick
            if path is not None:
                path[i] = x


def em_stepper(model: ModelSpec):
    """The EM kernel for `model`: its own fused em_kernel while the spec keeps the
    linear, nonlinear and diffusion terms that kernel was built from and has no
    forcing, else the generic em_advance."""
    fused = model.em_kernel
    if fused is None or not model.autonomous:
        return em_advance
    terms = (model.linear, model.nonlinear, model.diffusion_factor)
    return fused if all(a is b for a, b in zip(fused.terms, terms)) else em_advance


def heun_advance(model: ModelSpec, x: np.ndarray, times, dt: float,
                 drive: np.ndarray, path=None) -> None:
    """em_advance's Heun twin on f(x, t) + b(x) drive; times[i + 1] ends step i."""
    shape = (-1, *drive.shape[1:])

    def slope(u, t, d):
        return (drift(model, u, t).reshape(shape) + _kick(model, u, d)).reshape(u.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        for i, d in enumerate(drive):
            k1 = slope(x, times[i], d)
            k2 = slope(x + dt * k1, times[i + 1], d)
            x += 0.5 * dt * (k1 + k2)
            if path is not None:
                path[i] = x


def _checked_path(model: ModelSpec, advance, x0: np.ndarray, grid: TimeGrid,
                  inc: np.ndarray, eps: float, what: str, record) -> Path:
    """Path on the last `record` steps of `grid` (all of them for None) of x0, one state
    or a block of rows, stepped by `advance` over `grid` on the drive of inc ((steps, K)
    increments or controls) at strength eps, built, stepped and scanned for divergence per
    CHECK_EVERY steps.  Steps before the record go into one reusable CHECK_EVERY scratch
    block, scanned alike.  The error names the first diverging step and, for a block, its
    first diverging row (also set as the error's `row`)."""
    record = grid.steps if record is None else _as_int(record, "record")
    if not 1 <= record <= grid.steps:
        raise InputError(f"record must be 1 to {grid.steps} steps of {grid}, got {record}")
    start = grid.steps - record
    x = x0.copy()  # stepped in place
    times = grid.times()
    out = np.empty((record + 1, *x0.shape))
    scratch = np.empty((min(CHECK_EVERY, grid.steps) if start else 0, *x0.shape))
    if start == 0:
        out[0] = x
    for i in range(0, grid.steps, CHECK_EVERY):
        j = min(i + CHECK_EVERY, grid.steps)
        states = out[i + 1 - start : j + 1 - start] if i >= start else scratch[: j - i]
        advance(model, x, times[i : j + 1], grid.dt, mode_drive(model, eps, inc[None, i:j]),
                states)
        bad = np.argwhere(blowup_sq(model, states) > BLOWUP_NORM**2)
        if len(bad):
            step = i + 1 + int(bad[0, 0])
            row = int(bad[0, 1]) if x0.ndim == 2 else None
            label = what if row is None else f"{what} row {row}"
            err = DivergenceError(f"{label} of '{model.name}' diverged at step {step} "
                                  f"(t = {times[step]:.6g})", step=step, time=float(times[step]))
            err.row = row
            raise err
        if i < start <= j:  # the record opens in this interval
            out[: j + 1 - start] = scratch[start - 1 - i : j - i]
    return Path(grid.tail(record), out)


def em_step_sde(model: ModelSpec, x0, grid: TimeGrid, noise: NoisePath,
                eps: float, record=None) -> Path:
    """Euler-Maruyama trajectory of the noisy equation over `grid`, its last `record` steps.

    x0 is one state (dim,) or a block (rows, dim) of states that all start at
    grid.t_start and share the noise.  The noise record must cover the grid with
    the same spacing; its increments are consumed mode-wise through the model's
    diffusion.  `record`, an integer from 1 to grid.steps (default: all of them),
    is all that is kept: the returned Path lies on grid.tail(record), so memory
    follows the record, not the grid.  Every step is taken and checked alike, and
    the recorded states are the whole run's bit for bit.
    """
    x0 = _check_start(model, x0)
    check_dt(model, grid.dt)
    check_eps(model, eps)
    if noise.modes != model.modes:
        raise InputError(
            f"noise carries {noise.modes} modes, model '{model.name}' expects {model.modes}"
        )
    return _checked_path(model, em_stepper(model), x0, grid, noise.restrict(grid).increments,
                         eps, "trajectory", record)


def _control_table(model: ModelSpec, grid: TimeGrid, control) -> np.ndarray:
    """Per-step mode coefficients aligned to `grid`, zero outside the support.

    Accepts None (zero control), a (steps, K) array on `grid`, or any
    object carrying .grid and .coeffs (a Control).
    """
    if control is None:
        return np.zeros((grid.steps, model.modes))
    if getattr(control, "coeffs", None) is None:  # a raw table, on `grid` itself
        cgrid, coeffs = grid, _as_table(control, grid.steps, "raw control")
    else:
        cgrid, coeffs = control.grid, np.asarray(control.coeffs, dtype=np.float64)
    if not same_spacing(cgrid, grid):
        raise InputError(
            f"control dt {cgrid.dt} does not match trajectory dt {grid.dt}"
        )
    if coeffs.shape[1] != model.modes:
        raise InputError(
            f"control carries {coeffs.shape[1]} modes, model expects {model.modes}"
        )
    out = np.zeros((grid.steps, model.modes))
    # overlap of the two step windows, zero elsewhere
    off = whole_steps((cgrid.t_start - grid.t_start) / grid.dt,
                      f"control grid start {cgrid.t_start} is off the trajectory's lattice")
    lo = max(0, off)
    hi = min(grid.steps, off + cgrid.steps)
    if lo < hi:
        out[lo:hi] = coeffs[lo - off : hi - off]
    return out


def integrate_skeleton(model: ModelSpec, x0, grid: TimeGrid, control=None,
                       record=None) -> Path:
    """Heun (explicit trapezoidal) trajectory of the controlled equation; x0 is one
    state or a block of rows sharing the control, and `record` the number of final
    steps kept (default: all of them), as for em_step_sde."""
    x0 = _check_start(model, x0)
    check_dt(model, grid.dt)
    return _checked_path(model, heun_advance, x0, grid, _control_table(model, grid, control),
                         1.0, "skeleton trajectory", record)
