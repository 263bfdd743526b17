"""Pullback limits: one noise realization, ever earlier start times.

The stationary solution at the chosen noise strength is approximated by
integrating the equation from -n with the model's rest state as initial
data, over a frozen realization, for an increasing ladder of horizons n.
Dissipativity makes consecutive trajectories contract toward each other
on any fixed viewing window; the ladder's sup-norm gaps, their fitted
log-linear decay rate, and the convergence verdict are returned as
diagnostics next to the final trajectory.

The same ladder applied to the controlled (noise-free) equation yields
attracting deterministic structures, e.g. the periodic orbit of the
periodically forced scalar model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NonConvergenceError
from .grids import TimeGrid, check_positive, ladder_steps, whole_steps
from .integrate import Path, check_eps, em_step_sde, integrate_skeleton
from .models import ModelSpec, h_norm
from .noise import sample_noise, shift_noise


@dataclass(frozen=True)
class PullbackDiag:
    """Convergence record of one pullback ladder."""

    horizons: list
    gaps: list
    fitted_rate: Optional[float]
    converged: bool

    def to_dict(self) -> dict:
        return {
            "horizons": [float(n) for n in self.horizons],
            "gaps": [float(g) for g in self.gaps],
            "fitted_rate": self.fitted_rate,
            "converged": self.converged,
        }


def default_horizons(model: ModelSpec, view: TimeGrid) -> list[float]:
    """Start-time ladder {5, 10, 20} relaxation times before the view."""
    need = max(0.0, -view.t_start)
    r = model.relax_rate
    return [need + 5.0 / r, need + 10.0 / r, need + 20.0 / r]


def _ladder_grids(view: TimeGrid, horizons) -> list[TimeGrid]:
    """Integration grids [-n, view.t_end] on the view's step lattice.

    Horizons are snapped outward to whole steps so every grid shares the
    lattice; this is what keeps one noise realization consistent across
    the ladder.
    """
    dt = view.dt
    return [TimeGrid(view.t_start - before * dt, view.t_end, before + view.steps)
            for before in ladder_steps(horizons, dt, start=view.t_start)]


def _run_ladder(model: ModelSpec, view: TimeGrid, grids: list[TimeGrid],
                integrate: Callable[[TimeGrid], Path], tol: float, seed=None):
    """Integrate the ladder, measure view-window sup gaps, fit the decay rate."""
    check_positive(tol, "tol")
    gaps = []
    prev = None
    for grid in grids:
        restricted = integrate(grid).restrict(view)
        if prev is not None:
            gaps.append(float(np.max(h_norm(model, restricted.states - prev.states))))
            if len(gaps) >= 2 and gaps[-1] >= gaps[-2] and gaps[-1] > tol:
                raise NonConvergenceError(
                    f"pullback gaps stopped decreasing: {gaps}; "
                    "a longer first horizon or smaller dt may be needed",
                    gaps=gaps,
                    seed=seed,
                )
        prev = restricted
    horizons = [-g.t_start for g in grids]
    positive = [(horizons[i], g) for i, g in enumerate(gaps) if g > 0.0]
    if len(positive) >= 2:
        xs = np.array([p[0] for p in positive])
        ys = np.log([p[1] for p in positive])
        rate = float(np.polyfit(xs, ys, 1)[0])
    else:
        rate = None
    converged = bool(gaps and gaps[-1] < tol)
    diag = PullbackDiag(horizons=horizons, gaps=gaps, fitted_rate=rate,
                        converged=converged)
    return prev, diag


def _em_rungs(model: ModelSpec, noise, eps: float) -> Callable[[TimeGrid], Path]:
    """Rung integrator: EM from the rest state over `noise` on a ladder grid."""
    return lambda grid: em_step_sde(model, model.pullback_init, grid,
                                    noise.restrict(grid), eps)


def pullback_stationary(model: ModelSpec, eps: float, seed: int, view: TimeGrid,
                        horizons=None, tol: float = 1e-4):
    """Stationary-solution sample on `view` for one noise realization.

    Returns (path, diagnostics).  Raises NonConvergenceError when the
    ladder's gaps stop decreasing while still above tolerance.
    """
    check_eps(model, eps)
    if horizons is None:
        horizons = default_horizons(model, view)
    grids = _ladder_grids(view, horizons)
    noise = sample_noise(grids[-1], model.modes, seed)
    return _run_ladder(model, view, grids, _em_rungs(model, noise, eps), tol, seed=seed)


def pullback_skeleton(model: ModelSpec, control, view: TimeGrid,
                      horizons=None, tol: float = 1e-4):
    """Pullback limit of the controlled equation (control zero before its support)."""
    if horizons is None:
        horizons = default_horizons(model, view)
    grids = _ladder_grids(view, horizons)

    def integrate(grid: TimeGrid) -> Path:
        return integrate_skeleton(model, model.pullback_init, grid, control)

    return _run_ladder(model, view, grids, integrate, tol)


def stationarity_check(model: ModelSpec, eps: float, seed: int, s: float,
                       view: Optional[TimeGrid] = None, horizons=None,
                       tol: float = 1e-4) -> float:
    """Sup-gap between the time-shifted solution and the solution of the
    time-shifted noise; small values witness statistical stationarity.

    Compares X(t + s) under realization w against X(t) under the shifted
    realization, over `view`, with one matched horizon ladder.
    """
    check_eps(model, eps)
    if view is None:
        dt = model.default_dt
        view = TimeGrid(-2.0, 2.0, int(round(4.0 / dt)))
    dt = view.dt
    not_a_shift = f"shift {s} must be a non-negative multiple of dt={dt}"
    if whole_steps(s / dt, not_a_shift) < 0:
        raise InputError(not_a_shift)
    if horizons is None:
        horizons = default_horizons(model, view)
    shifted_view = TimeGrid(view.t_start + s, view.t_end + s, view.steps)
    grids_late = _ladder_grids(shifted_view, [n + s for n in horizons])
    grids_base = _ladder_grids(view, horizons)
    noise = sample_noise(grids_late[-1], model.modes, seed)
    noise_shifted = shift_noise(noise, s)
    late, _ = _run_ladder(model, shifted_view, grids_late,
                          _em_rungs(model, noise, eps), tol, seed)
    base, _ = _run_ladder(model, view, grids_base,
                          _em_rungs(model, noise_shifted, eps), tol, seed)
    return float(np.max(h_norm(model, late.states - base.states)))

