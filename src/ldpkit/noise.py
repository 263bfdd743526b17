"""Driving noise: counter-keyed Gaussian increment records.

Every mode-k increment over a grid step is an independent N(0, dt) draw.
Draws are produced by hashing a 64-bit counter derived from
(seed, absolute step index, mode) through a splitmix-style finalizer and
mapping the resulting uniform through the inverse normal CDF.  There is
no generator state: any sub-window of any window regenerates bit-identical
values, which is what lets the batched sampler draw each seed's realization
window by window.  A pullback ladder draws one record over its longest
rung's grid and steps each segment, one rung joining at each cut, on a
sub-window of it.

Step indices are absolute, anchored at t = 0 (index floor is round(t/dt)),
and may be negative; a zigzag bijection folds them into the counter.

Large blocks are filled in tiles of a few steps, split into one contiguous
range of tiles per CPU this process may run on.  Each word depends on its
counter alone and each tile writes its own rows, so the split cannot change
a value.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .errors import InputError
from .grids import TimeGrid, check_positive, step_offset, whole_steps

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_SALT_STREAM = np.uint64(0x243F6A8885A308D3)
_SALT_DERIVE = np.uint64(0x452821E638D01377)

_U64_MAX = (1 << 64) - 1
_TILE_WORDS = 1 << 14
# the CPUs this process may run on; gaussian_block uses one range of tiles each
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = (None, None)  # (pid, ThreadPoolExecutor), made on first use
_pool_lock = threading.Lock()


def _as_int(name: str, value) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_u64(seed: int) -> np.uint64:
    seed = _as_int("seed", seed)
    if seed < 0 or seed > _U64_MAX:
        raise InputError(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.uint64(seed)


def _mix64(x: np.ndarray) -> np.ndarray:
    # Stafford variant-13 finalizer, in place on a fresh uint64 array.
    tmp = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=tmp)
    x *= _MIX_A
    x ^= np.right_shift(x, np.uint64(27), out=tmp)
    x *= _MIX_B
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def derive_seed(seed: int, index: int) -> int:
    """Child seed for a numbered sub-stream (one per Monte Carlo sample).

    Double mixing keeps the child streams out of phase with the parent's
    own counter sequence.
    """
    if index < 0:
        raise InputError(f"stream index must be non-negative, got {index}")
    return int(derive_seeds_from(seed, index, 1)[0])


def derive_seeds_from(seed: int, first_index: int, count: int) -> np.ndarray:
    """Child seeds for indices [first_index, first_index + count), as uint64."""
    if first_index < 0 or count < 0:
        raise InputError(
            f"stream index range must be non-negative, got start {first_index} "
            f"count {count}"
        )
    base = _mix64(np.array([_as_u64(seed) ^ _SALT_DERIVE]))
    idx = np.arange(first_index + 1, first_index + count + 1, dtype=np.uint64)
    return _mix64(base + idx * _GOLDEN)


def _stream_states(seeds) -> np.ndarray:
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1):
        # checked one by one, as objects so that ints past 2**63 stay ints
        seeds = [_as_u64(s) for s in np.atleast_1d(np.asarray(seeds, dtype=object))]
    return _mix64(np.asarray(seeds, dtype=np.uint64) ^ _SALT_STREAM)


def _zigzag(steps: np.ndarray) -> np.ndarray:
    steps = np.asarray(steps, dtype=np.int64)
    return np.where(steps >= 0, 2 * steps, -2 * steps - 1).astype(np.uint64)


def _executor():
    """The shared tile pool; a forked child makes its own, as the parent's threads are gone."""
    global _pool
    with _pool_lock:
        if _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(max(1, _WORKERS - 1), "ldpkit-noise"))
        return _pool[1]


def _fill(out, step_part, base, scale, lo: int, hi: int, rows: int) -> None:
    """Steps [lo, hi) of out, `rows` steps per tile so that the passes run in cache."""
    for r in range(lo, hi, rows):
        x = _mix64(step_part[r : r + rows] + base)
        # 53-bit uniform strictly inside (0, 1); ndtri stays finite.
        u = np.add(np.right_shift(x, np.uint64(11), out=x), 0.5, out=out[r : r + rows])
        u *= 2.0**-53
        ndtri(u, out=u)
        u *= scale


def gaussian_block(seeds, first_step: int, steps: int, modes: int, dt: float) -> np.ndarray:
    """N(0, dt) increments for absolute steps [first_step, first_step+steps).

    Returns shape (len(seeds), steps, modes); each seed indexes an
    independent stream, each (step, mode) cell a fixed counter word.  It is
    the step-major (1, 0, 2) transpose of a C-contiguous (steps, seeds, modes) array.
    """
    first_step = _as_int("first step", first_step)
    steps = _as_int("step count", steps)
    modes = _as_int("mode count", modes)
    if modes < 1:
        raise InputError(f"mode count must be positive, got {modes}")
    if steps < 0:
        raise InputError("step count must be non-negative")
    check_positive(dt, "dt")
    states = _stream_states(seeds)
    # state + (z*modes + k + 1)*GOLDEN mod 2**64 as (seed, mode) part + step part
    base = (states[:, None] + np.arange(1, modes + 1, dtype=np.uint64) * _GOLDEN).ravel()
    step_part = (_zigzag(first_step + np.arange(steps)) * np.uint64(modes) * _GOLDEN)[:, None]
    out = np.empty((steps, base.size))
    scale = np.sqrt(dt)
    rows = max(1, _TILE_WORDS // max(1, base.size))
    tiles = -(-steps // rows)
    parts = max(1, min(_WORKERS, tiles))
    # part j takes tiles [j*tiles//parts, (j+1)*tiles//parts); this thread fills part 0
    edges = [min(steps, j * tiles // parts * rows) for j in range(parts + 1)]
    pool = _executor() if parts > 1 else None
    later = [pool.submit(_fill, out, step_part, base, scale, lo, hi, rows)
             for lo, hi in zip(edges[1:-1], edges[2:])]
    _fill(out, step_part, base, scale, edges[0], edges[1], rows)
    for f in later:
        f.result()
    return out.reshape(steps, len(states), modes).transpose(1, 0, 2)


@dataclass(frozen=True)
class NoisePath:
    """Increment record of one noise realization on a grid.

    increments[i, k] is the mode-k Gaussian increment over
    [t_i, t_i + dt); shape (grid.steps, modes).  seed is kept for
    provenance and is None for records not produced by sample_noise
    (loaded or shifted ones keep the originating seed when known).
    """

    grid: TimeGrid
    increments: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim != 2 or inc.shape[0] != self.grid.steps:
            raise InputError(
                f"increment record must have shape (steps, modes) = "
                f"({self.grid.steps}, K), got {inc.shape}"
            )
        if not np.all(np.isfinite(inc)):
            raise InputError("increment record contains non-finite values")
        object.__setattr__(self, "increments", inc)

    @property
    def modes(self) -> int:
        return self.increments.shape[1]

    def restrict(self, grid: TimeGrid) -> "NoisePath":
        """The record over a sub-window with the same spacing."""
        off = step_offset(self.grid, grid)
        return NoisePath(grid, self.increments[off : off + grid.steps], self.seed)

    def cumulative(self) -> np.ndarray:
        """Brownian path W(t_i) - W(t_start) at all grid points, shape (steps+1, modes)."""
        out = np.zeros((self.grid.steps + 1, self.modes))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def sample_noise(grid: TimeGrid, modes: int, seed: int) -> NoisePath:
    """The noise realization of `seed` restricted to `grid`.

    Windows with the same dt whose start times sit on the common t = 0
    anchored lattice see one and the same realization: regeneration is a
    pure function of (seed, absolute step, mode).
    """
    dt = grid.dt
    base = whole_steps(grid.t_start / dt, f"window start {grid.t_start} is not on the "
                       f"dt = {dt} step lattice anchored at t = 0")
    block = gaussian_block([seed], base, grid.steps, modes, dt)
    return NoisePath(grid, block[0], seed)


def shift_noise(noise: NoisePath, s: float) -> NoisePath:
    """Increment record of the time-shifted realization.

    Step i of the result equals step i + s/dt of the input, i.e. the
    result drives a system that experiences the original noise s time
    units early.  s must be a non-negative multiple of dt small enough
    that the shifted window stays inside the sampled one.
    """
    dt = noise.grid.dt
    m = whole_steps(s / dt, f"shift {s} is not a multiple of dt={dt}")
    if m == 0:
        return NoisePath(noise.grid, noise.increments, noise.seed)
    if m < 0:
        raise InputError("backward shift leaves the sampled window")
    if m >= noise.grid.steps:
        raise InputError(
            f"shift {s} swallows the whole window [{noise.grid.t_start}, {noise.grid.t_end}]"
        )
    grid = TimeGrid(noise.grid.t_start, noise.grid.t_end - m * dt, noise.grid.steps - m)
    return NoisePath(grid, noise.increments[m:], noise.seed)


_HEADER_DTYPE = np.dtype(
    [
        ("seed", "<u8"),
        ("t_start", "<f8"),
        ("t_end", "<f8"),
        ("steps", "<u8"),
        ("modes", "<u8"),
    ]
)
_SEED_NONE = np.uint64(_U64_MAX)


def save_noise(noise: NoisePath, path) -> None:
    """Little-endian binary dump: header then row-major float64 increments."""
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["seed"] = _SEED_NONE if noise.seed is None else np.uint64(noise.seed)
    header["t_start"] = noise.grid.t_start
    header["t_end"] = noise.grid.t_end
    header["steps"] = noise.grid.steps
    header["modes"] = noise.modes
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(noise.increments, dtype="<f8").tobytes())


def load_noise(path) -> NoisePath:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_DTYPE.itemsize:
        raise InputError(f"{path}: truncated noise dump")
    header = np.frombuffer(raw[: _HEADER_DTYPE.itemsize], dtype=_HEADER_DTYPE)[0]
    steps = int(header["steps"])
    modes = int(header["modes"])
    body = np.frombuffer(raw[_HEADER_DTYPE.itemsize :], dtype="<f8")
    if body.size != steps * modes:
        raise InputError(
            f"{path}: expected {steps * modes} increments, found {body.size}"
        )
    grid = TimeGrid(float(header["t_start"]), float(header["t_end"]), steps)
    seed = None if header["seed"] == _SEED_NONE else int(header["seed"])
    return NoisePath(grid, body.reshape(steps, modes).copy(), seed)
