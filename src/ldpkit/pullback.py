"""Pullback limits: one noise realization, ever earlier start times.

The stationary solution at the chosen noise strength is approximated by
integrating the equation from -n with the model's rest state as initial
data, over a frozen realization, for an increasing ladder of horizons n.
Dissipativity makes consecutive trajectories contract toward each other
on any fixed viewing window; the ladder's sup-norm gaps, their fitted
log-linear decay rate, and the convergence verdict are returned as
diagnostics next to the final trajectory.

A ladder is integrated as one state whose rows are its rungs.  The
longest grid is cut at each shorter rung's start step; each segment is
one call of the traced stepper on the rows started so far plus one new
row at rest, so every step is taken once for all rungs.  Each segment
steps with its own grid's dt, which can differ from a whole rung's dt in
the last bit, so ladder outputs can differ at the rounding level from
integrating each rung alone.  A segment records only what the ladder
reads, as a count of final steps: its last step for the next segment's
start, and, for the last segment, the view's steps.  A noisy segment draws
its own noise words when it starts, the words of its absolute steps at the
longest grid's dt, which a record of the whole longest grid would hold; the
gaps are taken over the view in CHECK_EVERY rows at a time.  So a ladder's
memory is the view block plus one segment's words, however long the
horizons grow: a default burgers1d ladder on the view [-0.2, 0] peaks at
7.9 MB traced, against 13.5 MB with the whole longest grid's record.

The same ladder applied to the controlled (noise-free) equation yields
attracting deterministic structures, e.g. the periodic orbit of the
periodically forced scalar model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, InputError, NonConvergenceError
from .grids import (TimeGrid, _as_real, check_positive, ladder_steps, record_dict, step_offset,
                    whole_steps)
from .integrate import CHECK_EVERY, Path, check_eps, em_step_sde, integrate_skeleton
from .ldpverify import line_fit
from .models import ModelSpec, h_norm
from .noise import NoisePath, _start_step, gaussian_block


@dataclass(frozen=True)
class PullbackDiag:
    """Convergence record of one pullback ladder."""

    horizons: list
    gaps: list
    fitted_rate: Optional[float]
    converged: bool

    to_dict = record_dict


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


def _segments(grids: list[TimeGrid]) -> list[TimeGrid]:
    """The longest ladder grid cut at each shorter rung's start step, earliest first.

    Segment k runs from the start of the (k+1)-th longest rung to the start of
    the next shorter one; the last segment is the shortest rung's grid itself.
    Every cut sits on the rungs' common lattice.
    """
    desc = grids[::-1]
    return [TimeGrid(a.t_start, b.t_start, a.steps - b.steps)
            for a, b in zip(desc, desc[1:])] + [desc[-1]]


def _sup_gap(model: ModelSpec, a: np.ndarray, b: np.ndarray) -> float:
    """max_t |a(t) - b(t)|_H over two paths' rows, CHECK_EVERY rows at a time."""
    return max(float(np.max(h_norm(model, a[i : i + CHECK_EVERY] - b[i : i + CHECK_EVERY])))
               for i in range(0, len(a), CHECK_EVERY))


def _run_ladder(model: ModelSpec, view: TimeGrid, grids: list[TimeGrid],
                integrate: Callable[[np.ndarray, TimeGrid, int], Path], tol: float,
                seed=None):
    """Integrate the ladder as one row block, measure view-window sup gaps, fit the decay rate.

    `integrate(x0, grid, record)` steps a block x0 of rows over one segment and
    returns its path over the last `record` steps: 1 for every segment but the
    last, the view's steps for the last.  Row r is the rung with the r-th longest
    horizon: the longest rung starts alone, and each shorter one joins as a new row
    at rest when its start step comes, so every step is taken once for all rungs.
    """
    check_positive(tol, "tol")
    horizons = [-g.t_start for g in grids]
    x = np.empty((0, model.dim))
    segments = _segments(grids)
    for k, segment in enumerate(segments):
        record = view.steps if k == len(segments) - 1 else 1
        try:
            path = integrate(np.vstack([x, model.pullback_init]), segment, record)
        except DivergenceError as err:
            rung = len(grids) - 1 - err.row  # its index in ascending horizon order
            step = grids[rung].steps - grids[-1 - k].steps + err.step
            raise DivergenceError(
                f"pullback rung with horizon {horizons[rung]:g} of '{model.name}' diverged "
                f"at step {step} (t = {err.time:.6g})", step=step, time=err.time) from None
        x = path.states[-1]
    rungs = path.states[:, ::-1]  # on the view, shortest horizon first
    longest = Path(view, rungs[:, -1].copy())
    gaps = []
    for i in range(1, len(grids)):
        gaps.append(_sup_gap(model, rungs[:, i], rungs[:, i - 1]))
        if len(gaps) >= 2 and gaps[-1] >= gaps[-2] and gaps[-1] > tol:
            raise NonConvergenceError(
                f"pullback gaps stopped decreasing: {gaps}; "
                "a longer first horizon or smaller dt may be needed",
                gaps=gaps,
                seed=seed,
            )
    positive = [(horizons[i], g) for i, g in enumerate(gaps) if g > 0.0]
    if len(positive) >= 2:
        # math.log: numpy's log rounds differently on its AVX-512 path
        rate = line_fit([p[0] for p in positive], [math.log(p[1]) for p in positive])[0]
    else:
        rate = None
    converged = bool(gaps and gaps[-1] < tol)
    diag = PullbackDiag(horizons=horizons, gaps=gaps, fitted_rate=rate,
                        converged=converged)
    return longest, diag


def _em(model: ModelSpec, eps: float, seed: int, longest: TimeGrid, shift: int = 0):
    """_run_ladder's `integrate` for the noisy equation, each segment drawing its noise
    when it starts: the words a record of seed's realization over `longest` would give
    it, `shift` steps later, at longest.dt."""
    first = _start_step(longest) + shift

    def integrate(x0, grid, record):
        words = gaussian_block([seed], first + step_offset(longest, grid), grid.steps,
                               model.modes, longest.dt)
        return em_step_sde(model, x0, grid, NoisePath(grid, words[0]), eps, record)

    return integrate


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
    return _run_ladder(model, view, grids, _em(model, eps, seed, grids[-1]), tol, seed)


def pullback_skeleton(model: ModelSpec, control, view: TimeGrid,
                      horizons=None, tol: float = 1e-4):
    """Pullback limit of the controlled equation (control zero before its support)."""
    if horizons is None:
        horizons = default_horizons(model, view)
    grids = _ladder_grids(view, horizons)
    return _run_ladder(model, view, grids,
                       lambda x0, grid, record: integrate_skeleton(model, x0, grid, control,
                                                                   record), tol)


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
    shift = whole_steps(_as_real(s, "shift") / dt, not_a_shift)
    if shift < 0:
        raise InputError(not_a_shift)
    if horizons is None:
        horizons = default_horizons(model, view)
    shifted_view = TimeGrid(view.t_start + s, view.t_end + s, view.steps)
    grids_late = _ladder_grids(shifted_view, [n + s for n in horizons])
    grids_base = _ladder_grids(view, horizons)
    # the base ladder reads the late ladder's realization s later: its noise, shifted
    late, _ = _run_ladder(model, shifted_view, grids_late,
                          _em(model, eps, seed, grids_late[-1]), tol, seed)
    base, _ = _run_ladder(model, view, grids_base,
                          _em(model, eps, seed, grids_late[-1], shift), tol, seed)
    return _sup_gap(model, late.states, base.states)

