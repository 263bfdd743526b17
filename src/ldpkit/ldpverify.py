"""Monte Carlo evidence for the small-noise decay law of rare events.

Stationary samples at several noise strengths give rare-event
frequencies p(eps); if the stationary family satisfies a large
deviations principle, eps * log p(eps) tends to minus the cheapest
transition cost into the event as eps decreases.  This module produces
the samples (a batched pullback evaluated at time 0), the per-eps
estimates with confidence intervals, and the extrapolation of
eps * log p toward eps = 0 that is compared against the cost computed
by the minimum-action module.

Naive sampling only: event radii and the eps schedule must keep the
rarest probability within reach of the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, InputError, InsufficientDataError, NonConvergenceError
from .grids import _as_int, _as_real, _as_reals, _is_number, check_positive, ladder_steps
from .integrate import CHECK_EVERY, check_dt, check_eps, em_stepper, mode_drive, worst_blowup
from .models import ModelSpec, h_norm
from .noise import derive_seed, derive_seeds_from, gaussian_stream

_Z95 = 1.959963984540054
_DRIVE_WORDS = 4_000_000  # drive words of one check interval, summed over a seed chunk
_BURN_STEP = 0.01  # the sampler's coarse step, in relaxation times
_FINE_TAIL = 7.5  # the joint run's fine steps before time 0, in relaxation times


@dataclass(frozen=True)
class Event:
    """Measurable predicate on states from the shipped family.

    kind "norm_ge": H-norm at least `threshold`; "coord_ge": coordinate
    `index` at least `threshold`; "box": all coordinates within
    [lo, hi] componentwise.
    """

    kind: str
    threshold: Optional[float] = None
    index: Optional[int] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    @classmethod
    def norm_ge(cls, threshold: float) -> "Event":
        if not (_is_number(threshold) and threshold >= 0):
            raise InputError(f"norm threshold must be a non-negative number, got {threshold!r}")
        return cls(kind="norm_ge", threshold=float(threshold))

    @classmethod
    def coord_ge(cls, index: int, threshold: float) -> "Event":
        index = _as_int(index, "coordinate index")
        if index < 0:
            raise InputError(f"coordinate index must be non-negative, got {index}")
        if not _is_number(threshold) or math.isnan(threshold):
            raise InputError(f"coordinate threshold must be a number, not NaN, got {threshold!r}")
        return cls(kind="coord_ge", threshold=float(threshold), index=index)

    @classmethod
    def box(cls, lo, hi) -> "Event":
        lo = np.atleast_1d(_as_reals(lo, "box corner lo"))
        hi = np.atleast_1d(_as_reals(hi, "box corner hi"))
        if lo.shape != hi.shape:
            raise InputError(f"box corners must match, got {lo.shape} vs {hi.shape}")
        if not np.all(lo <= hi):  # NaN corners fail too; infinite ones leave a side open
            raise InputError(f"box needs lo <= hi in every coordinate, got {lo} and {hi}")
        return cls(kind="box", lo=lo, hi=hi)

    def check_fits(self, model: ModelSpec) -> None:
        """Raise InputError unless the event's coordinates exist in the model's state."""
        if self.kind == "coord_ge" and self.index >= model.dim:
            raise InputError(
                f"coordinate {self.index} out of range for dim {model.dim}"
            )
        if self.kind == "box" and self.lo.shape != (model.dim,):
            raise InputError(
                f"box corners have shape {self.lo.shape}, model dim is {model.dim}"
            )

    def indicator(self, model: ModelSpec, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2 or states.shape[1] != model.dim:
            raise InputError(
                f"states must have shape (n, {model.dim}), got {states.shape}"
            )
        self.check_fits(model)
        if self.kind == "norm_ge":
            return h_norm(model, states) >= self.threshold
        if self.kind == "coord_ge":
            return states[:, self.index] >= self.threshold
        if self.kind == "box":
            return np.all((states >= self.lo) & (states <= self.hi), axis=1)
        raise InputError(f"unknown event kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "norm_ge":
            return f"norm_ge({self.threshold:g})"
        if self.kind == "coord_ge":
            return f"coord_ge({self.index}, {self.threshold:g})"
        return f"box({self.lo.tolist()}, {self.hi.tolist()})"


@dataclass(frozen=True)
class MCEstimate:
    """One rare-event frequency with its Wilson 95% interval."""

    eps: float
    event: str
    n_samples: int
    hits: int
    p_hat: float
    lo95: float
    hi95: float
    log_scaled: Optional[float]
    low_statistics: bool

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise InputError(f"p_hat must be a probability, got {self.p_hat}")
        if self.hits < 0 or (self.n_samples > 0 and self.hits > self.n_samples):
            raise InputError(
                f"hit count {self.hits} inconsistent with {self.n_samples} samples"
            )


def wilson_interval(hits: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """95% score interval for a binomial proportion; valid down to 0 hits."""
    if n < 1:
        raise InputError(f"need at least one sample, got {n}")
    if not 0 <= hits <= n:
        raise InputError(f"hit count {hits} inconsistent with {n} samples")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # at the boundary counts center - half is 0 (resp. 1) analytically;
    # do not let round-off dust survive there
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def make_estimate(eps: float, event: str, n_samples: int, hits: int) -> MCEstimate:
    lo, hi = wilson_interval(hits, n_samples)
    p_hat = hits / n_samples
    log_scaled = eps * math.log(p_hat) if hits > 0 else None
    return MCEstimate(eps=eps, event=event, n_samples=n_samples, hits=hits,
                      p_hat=p_hat, lo95=lo, hi95=hi, log_scaled=log_scaled,
                      low_statistics=hits == 0)


def _burn_stride(model: ModelSpec, dt: float) -> int:
    """Fine steps per coarse sampler step: as many as fit in _BURN_STEP relaxation
    times and under a known explicit-step bound; at least 1, and 1 with no bound.

    The bound is the model's declared stability ceiling, or, for a linear drift A
    with additive noise, min |Re mu| / |mu|^2 over A's spectrum: half EM's stability
    step, where the coarse chain's variance stays within twice the diffusion's.
    """
    if model.max_stable_dt is not None:
        bound = model.max_stable_dt
    elif model.nonlinear is None and model.unit_diffusion:
        mu = np.linalg.eigvals(model.linear(np.eye(model.dim)))
        bound = np.min(-mu.real / np.abs(mu) ** 2) if np.all(mu.real < 0) else 0.0
    else:
        return 1
    m = min(math.floor(_BURN_STEP / (model.relax_rate * dt)), math.floor(bound / dt))
    return max(1, m)


def _pullback_rows(model: ModelSpec, eps: float, seeds, steps_list,
                   dt: float) -> np.ndarray:
    """Time-0 states of one chunk, shape (2, n, dim), the longer horizon first.

    The horizons are two blocks of n rows of one state that share each step's
    drive, so both see the same realization per seed.  Three stretches on one
    lattice of m*dt steps (m = _burn_stride), whose coarse step k takes the word
    of the fine step it starts on (a strided noise window):
    - the burn-in, from the longer horizon's start, rounded down to whole coarse
      steps, to the shorter one's: the longer one's rows alone, coarse;
    - the joint coarse run: all 2n rows at m*dt to the fine tail;
    - the fine tail: all 2n rows at dt to 0.
    What the coarse steps get wrong reaches time 0 damped by about
    e^-_FINE_TAIL: the tail is _FINE_TAIL relaxation times, rounded up to whole
    coarse steps from the shorter start and capped at the shorter horizon.  With
    m = 1, or a shorter horizon under the tail, the joint run is one fine
    stretch.  Each stretch comes in pieces of CHECK_EVERY // 4 of its
    own steps from its first step, each one gaussian_stream window, mode_drive
    and advance; the pool fills the next piece while this thread steps one, so
    two pieces, about half of one check interval's noise, are alive at a time.
    As integrate._checked_path does, the longer horizon is checked for
    divergence after every CHECK_EVERY steps of a stretch and at its end; the
    error names the last fine step covered, counted from that horizon's start.
    However the run ends, the piece in flight is withdrawn from the pool.
    """
    n = len(seeds)
    short, long = steps_list
    m = _burn_stride(model, dt)
    burn = -(-(long - short) // m)  # coarse steps, the start rounded down to whole ones
    start = -short - burn * m
    fine = math.ceil(_FINE_TAIL / (model.relax_rate * dt) - 1e-9)
    joint = 0 if m == 1 else max(0, (short - fine) // m)  # coarse steps of the joint run
    tail = short - joint * m
    piece = CHECK_EVERY // 4
    pieces = []  # (rows, first fine step, steps of `stride` fine ones, stride, checked after it)
    for rows, first, steps, stride in ((n, start, burn, m), (2 * n, -short, joint, m),
                                       (2 * n, -tail, tail, 1)):
        for k in range(0, steps, piece):
            size = min(piece, steps - k)
            checked = (k + size) % CHECK_EVERY == 0 or k + size == steps
            pieces.append((rows, first + k * stride, size, stride, checked))
    x = np.full((2 * n, model.dim), model.pullback_init)
    advance = em_stepper(model)
    blocks = gaussian_stream(seeds, [(w0, size, stride) for _, w0, size, stride, _ in pieces],
                             model.modes, dt)
    try:
        for rows, w0, size, stride, checked in pieces:
            drive = mode_drive(model, eps, next(blocks), _overwrite=True)  # the loop's own block
            w1 = w0 + size * stride
            advance(model, x[:rows], np.arange(w0, w1, stride) * dt, stride * dt, drive)
            del drive  # release this piece before the one after next is started
            if not checked:
                continue  # no check interval ends here
            bad = worst_blowup(model, x[:n])
            if bad is not None:
                t = (w1 - 1) * dt
                raise DivergenceError(f"sample with derived seed {seeds[bad]} diverged at "
                                      f"t = {t:.6g}; smaller dt or eps needed",
                                      step=w1 - 1 - start, time=t)
    finally:
        blocks.close()  # withdraws the piece in flight, if any
    return x.reshape(2, n, model.dim)


def sample_stationary(model: ModelSpec, eps: float, n_samples: int, seed: int,
                      dt: Optional[float] = None, horizons=None,
                      tol: float = 1e-3) -> np.ndarray:
    """Independent stationary states at time 0; shape (n_samples, dim).

    Each sample integrates its own derived-seed realization from two
    rest-state start times, `horizons` (exactly two; default 10 and 20
    relaxation times); the H-gap between the two runs at time 0 must fall
    below `tol` or the offending seed is reported.  Both runs step at m*dt, on
    every m-th noise word, until the last 7.5 relaxation times before 0, and at
    dt from there: the burn-in, until the shorter run starts, steps the longer one
    alone from a start rounded down to whole coarse steps, and the fine tail is
    rounded up to whole coarse steps and capped at the shorter horizon.
    m = max(1, floor(0.01 / (relax_rate * dt))), capped by a known explicit-step
    bound, the model's max_stable_dt or, for a linear drift with additive noise,
    half EM's stability step; m = 1 for other models.  Each stretch's pieces and
    divergence checks count from its own first step and change no sample.  The
    samples depend on m; with m = 1 they are those of stepping at dt throughout.
    """
    check_eps(model, eps)
    n_samples = _as_int(n_samples, "sample count")
    if n_samples < 1:
        raise InputError(f"need at least one sample, got {n_samples}")
    check_positive(tol, "tol")
    if dt is None:
        dt = model.default_dt
    check_dt(model, dt)
    if horizons is None:
        horizons = [10.0 / model.relax_rate, 20.0 / model.relax_rate]
    steps_list = ladder_steps(horizons, dt, least=1)
    if len(steps_list) != 2:
        raise InputError(f"the sampler compares exactly two horizons, got {len(steps_list)}")

    seeds = derive_seeds_from(seed, 0, n_samples)
    per_sample = min(CHECK_EVERY, steps_list[-1]) * max(model.modes, model.dim)
    chunk = max(1, min(n_samples, _DRIVE_WORDS // per_sample))
    samples = np.empty((n_samples, model.dim))
    for start in range(0, n_samples, chunk):
        sl = slice(start, min(start + chunk, n_samples))
        states = _pullback_rows(model, eps, seeds[sl], steps_list, dt)
        gap = h_norm(model, states[0] - states[1])
        if not np.all(gap < tol):  # a NaN gap fails too
            bad = int(np.argmax(gap))
            raise NonConvergenceError(
                f"stationary sample with derived seed {seeds[sl][bad]} has "
                f"pullback gap {gap[bad]:.3e} at tolerance {tol:g}; "
                "longer horizons may be needed",
                gaps=[float(gap[bad])],
                seed=int(seeds[sl][bad]),
            )
        samples[sl] = states[0]
    return samples


def default_eps_schedule(model: ModelSpec) -> list[float]:
    """Noise strengths {0.8, 0.4, 0.2, 0.1} times the model's ceiling eps0."""
    return [f * model.eps0 for f in (0.8, 0.4, 0.2, 0.1)]


def estimate_event(model: ModelSpec, event: Event, eps_list=None,
                   n_samples: int = 100_000, seed: int = 0,
                   dt: Optional[float] = None, horizons=None,
                   tol: float = 1e-3) -> list[MCEstimate]:
    """One MCEstimate per eps, all from independent derived seed streams."""
    if eps_list is None:
        eps_list = default_eps_schedule(model)
    if not isinstance(event, Event):
        raise InputError(f"event must be an Event, got {type(event).__name__}")
    # what can be checked before the first (long) sampling run
    event.check_fits(model)
    for eps in eps_list:
        check_positive(eps, "eps")  # eps * log p needs noise
        check_eps(model, eps)
    estimates = []
    for j, eps in enumerate(eps_list):
        states = sample_stationary(model, eps, n_samples, derive_seed(seed, j),
                                   dt=dt, horizons=horizons, tol=tol)
        hits = int(np.count_nonzero(event.indicator(model, states)))
        estimates.append(make_estimate(float(eps), event.describe(), n_samples, hits))
    return estimates


def save_estimates(estimates, filename) -> None:
    """CSV: eps,n,hits,p_hat,lo95,hi95,log_scaled (blank when undefined)."""
    with open(filename, "w") as fh:
        fh.write("eps,n,hits,p_hat,lo95,hi95,log_scaled\n")
        for e in estimates:
            tail = "" if e.log_scaled is None else f"{e.log_scaled:.17g}"
            fh.write(
                f"{e.eps:.17g},{e.n_samples},{e.hits},{e.p_hat:.17g},"
                f"{e.lo95:.17g},{e.hi95:.17g},{tail}\n"
            )


@dataclass(frozen=True)
class SlopeFit:
    """Extrapolation of eps*log p to eps -> 0 against a reference cost."""

    intercept: float
    slope: float
    richardson: float
    reference: float
    distance: float
    residuals: list
    n_points: int

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "slope": self.slope,
            "richardson": self.richardson,
            "reference": self.reference,
            "distance": self.distance,
            "residuals": [float(r) for r in self.residuals],
            "n_points": self.n_points,
        }


def line_fit(x, y, w=None) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through (x, y), as np.polyfit(x, y, 1, w=w)
    fits it: residual i is weighted by w[i], its square by w[i]**2 (all 1 without w).

    Centred normal equations whose every sum is a math.fsum, the exact sum of its
    terms rounded once, so the fit does not depend on the order of the points or on
    a BLAS kernel.  Needs two distinct x.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    ws = [1.0] * len(x) if w is None else [float(v) ** 2 for v in w]
    total = math.fsum(ws)
    xm = math.fsum(a * b for a, b in zip(ws, x, strict=True)) / total
    ym = math.fsum(a * b for a, b in zip(ws, y, strict=True)) / total
    dx = [v - xm for v in x]
    sxx = math.fsum(a * d * d for a, d in zip(ws, dx))
    sxy = math.fsum(a * d * (v - ym) for a, d, v in zip(ws, dx, y))
    slope = sxy / sxx
    return slope, ym - slope * xm


def ldp_slope(estimates, reference: float) -> SlopeFit:
    """Weighted linear fit of eps*log p_hat in eps, extrapolated to 0.

    Weights come from the estimates' interval widths on the log scale;
    exact (zero-width) points get a floor weight.  Also reports the
    two-point extrapolation from the two smallest eps and the distance
    of the fitted intercept to -reference.
    """
    reference = _as_real(reference, "reference")
    usable = [e for e in estimates if e.log_scaled is not None]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"slope fit needs at least 3 estimates with hits, got {len(usable)}"
        )
    eps = np.array([e.eps for e in usable])
    if len(np.unique(eps)) < 3:
        raise InsufficientDataError("slope fit needs at least 3 distinct eps values")
    y = np.array([e.log_scaled for e in usable])
    sigma = np.array(
        [
            max(e.eps * (math.log(e.hi95) - math.log(max(e.lo95, 1e-300))) / (2 * _Z95), 1e-12)
            for e in usable
        ]
    )
    slope, intercept = line_fit(eps, y, w=1.0 / sigma)
    resid = y - (intercept + slope * eps)
    order = np.argsort(eps)
    e1, e2 = eps[order[0]], eps[order[1]]
    y1, y2 = y[order[0]], y[order[1]]
    if e2 == e1:
        raise InsufficientDataError("two smallest eps coincide; cannot extrapolate")
    richardson = float((y1 * e2 - y2 * e1) / (e2 - e1))
    return SlopeFit(
        intercept=float(intercept),
        slope=float(slope),
        richardson=richardson,
        reference=reference,
        distance=float(abs(intercept + reference)),
        residuals=[float(r) for r in resid],
        n_points=len(usable),
    )
