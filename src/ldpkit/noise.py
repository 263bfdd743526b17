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

A gaussian_stream window may be strided: with stride m its steps are m
lattice steps long, and step i takes the word of lattice step
first_step + m*i, scaled to N(0, m*dt).  It is the block at m*dt of all
m*steps lattice steps, sliced [:, ::m], without drawing the words it skips.
The counter map is unchanged (no stream-version bump), so a strided window
shares no word with an unstrided one over other lattice steps.  The batched
sampler steps its burn-in on such windows.

Large blocks are filled in tiles of a few steps.  The tiles are claimed one
at a time, by the calling thread and by a shared pool of one thread fewer
than the CPUs this process may run on, so whichever thread is free takes the
next.  gaussian_stream keeps one block ahead: the pool fills the next
window's block while the caller uses this one, and the stream hands that
block to gaussian_block, where the caller claims what is left.  Each word
depends on its counter alone and each tile writes its own rows, so neither
the claiming nor the stream can change a value.
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
# words per tile (256 KiB, in cache): a tile takes the GIL about a dozen times, so a pool
# thread filling large tiles seldom holds up a caller that steps between them
_TILE_WORDS = 1 << 15
# the CPUs this process may run on: the caller and _WORKERS - 1 pool threads claim tiles
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


def _mix64(x: np.ndarray, tmp: Optional[np.ndarray] = None) -> np.ndarray:
    # Stafford variant-13 finalizer, in place on a fresh uint64 array; tmp, if
    # given, is scratch memory of x's shape and dtype.
    tmp = np.empty_like(x) if tmp is None else tmp
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
    index = _as_int("stream index", index)
    if index < 0:
        raise InputError(f"stream index must be non-negative, got {index}")
    return int(derive_seeds_from(seed, index, 1)[0])


def derive_seeds_from(seed: int, first_index: int, count: int) -> np.ndarray:
    """Child seeds for indices [first_index, first_index + count), as uint64; index i
    takes counter i + 1, so the last index is 2**64 - 2."""
    first_index = _as_int("first stream index", first_index)
    count = _as_int("stream count", count)
    if first_index < 0 or count < 0:
        raise InputError(
            f"stream index range must be non-negative, got start {first_index} "
            f"count {count}"
        )
    if first_index + count > _U64_MAX:
        raise InputError(f"stream indices {first_index} to {first_index + count - 1} pass "
                         f"the 64-bit counter")
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


def _window(first_step, steps, modes, dt, stride=1) -> tuple:
    """The checked (first_step, steps, modes, dt, stride) of one block."""
    first_step = _as_int("first step", first_step)
    steps = _as_int("step count", steps)
    modes = _as_int("mode count", modes)
    stride = _as_int("stride", stride)
    if modes < 1:
        raise InputError(f"mode count must be positive, got {modes}")
    if steps < 0:
        raise InputError("step count must be non-negative")
    if stride < 1:
        raise InputError(f"stride must be positive, got {stride}")
    check_positive(dt, "dt")
    return first_step, steps, modes, float(dt), stride


class _Block:
    """One block in the making.  Its tiles of `rows` steps are claimed one at a time by
    whichever thread asks next, the pool's or the caller's, and each is filled by the
    thread that claimed it."""

    def __init__(self, states, first_step: int, steps: int, modes: int, dt: float,
                 stride: int = 1):
        self.key = (first_step, steps, modes, dt, stride)
        self.states = states
        # state + (z*modes + k + 1)*GOLDEN mod 2**64 as (seed, mode) part + step part
        self.base = (states[:, None] + np.arange(1, modes + 1, dtype=np.uint64) * _GOLDEN).ravel()
        z = _zigzag(np.arange(first_step, first_step + stride * steps, stride))
        self.step_part = (z * np.uint64(modes) * _GOLDEN)[:, None]
        self.out = np.empty((steps, self.base.size))
        self.scale = np.sqrt(stride * dt)
        self.rows = max(1, _TILE_WORDS // max(1, self.base.size))
        self.tiles = -(-steps // self.rows)
        self.claimed = 0  # tiles handed out, in order
        self.busy = 0  # tiles handed out and not yet written
        self.error = None
        self.idle = threading.Condition()
        self.then = None  # the block after this one in its stream, if any

    def start(self) -> "_Block":
        """Let up to _WORKERS - 1 pool threads claim tiles; a one-tile block makes no pool.

        Their futures are not read: a helper may still be queued behind other blocks
        when this one is done, and a failed tile reaches the caller through `error`."""
        helpers = min(_WORKERS, self.tiles) - 1
        pool = _executor() if helpers > 0 else None
        for _ in range(helpers):
            pool.submit(self.fill)
        return self

    def _fill_tile(self, tile: int) -> None:
        rows = slice(tile * self.rows, (tile + 1) * self.rows)
        x = self.step_part[rows] + self.base
        _mix64(x, self.out[rows].view(np.uint64))  # the tile's rows are its scratch
        # 53-bit uniform strictly inside (0, 1); ndtri stays finite.
        u = np.add(np.right_shift(x, np.uint64(11), out=x), 0.5, out=self.out[rows])
        u *= 2.0**-53
        ndtri(u, out=u)
        u *= self.scale

    def fill_one(self) -> bool:
        """Claim and fill the next tile; False if none is left unclaimed."""
        with self.idle:
            if self.claimed == self.tiles:
                return False
            tile = self.claimed
            self.claimed += 1
            self.busy += 1
        try:
            self._fill_tile(tile)
        except BaseException as err:
            self.error = err  # raised by result, so no tile is left unwritten unseen
            raise
        finally:
            with self.idle:
                self.busy -= 1
                if not self.busy:
                    self.idle.notify_all()
        return True

    def fill(self) -> None:
        """Claim and fill tiles until none is left unclaimed."""
        while self.fill_one():
            pass

    def settle(self) -> None:
        """Unclaim every tile nobody has claimed and wait for the claimed ones: no
        thread is left working on the block, and no caller waits on an unclaimed tile."""
        with self.idle:
            self.claimed = self.tiles
            self.idle.wait_for(lambda: not self.busy)

    def result(self) -> np.ndarray:
        """The block, as (seeds, steps, modes): this thread fills the unclaimed tiles."""
        try:
            self.fill()
            # while the pool writes this block's last tiles, fill the next block's
            while self.busy and self.then is not None and self.then.fill_one():
                pass
        finally:
            self.settle()
        if self.error is not None:
            raise self.error
        _, steps, modes, _, _ = self.key
        return self.out.reshape(steps, len(self.states), modes).transpose(1, 0, 2)


def gaussian_block(seeds, first_step: int, steps: int, modes: int, dt: float, *,
                   _started: Optional[_Block] = None) -> np.ndarray:
    """N(0, dt) increments for absolute steps [first_step, first_step+steps).

    Returns shape (len(seeds), steps, modes); each seed indexes an
    independent stream, each (step, mode) cell a fixed counter word.  It is
    the step-major (1, 0, 2) transpose of a C-contiguous (steps, seeds, modes) array.
    _started is the block of these words gaussian_stream started for this call,
    which the pool has been filling; it is finished here rather than started anew
    (a strided window's block, too).
    """
    if _started is None:
        _started = _Block(_stream_states(seeds), *_window(first_step, steps, modes, dt)).start()
    return _started.result()


def gaussian_stream(seeds, windows, modes: int, dt: float):
    """gaussian_block for each window, (first_step, steps) or (first_step, steps,
    stride), in turn, the pool filling the next window's block while the caller uses
    this one.

    A generator that keeps one block in flight: when the caller asks for a block,
    the next one is started, then the asked one is handed to gaussian_block, whose
    unclaimed tiles the caller fills; while the pool writes its last tiles, the
    caller fills the next block's.  So two blocks are alive at a time, if the
    caller drops each before asking for the next.  However the generator ends,
    closed (in a try/finally) or run out, the block in flight is unclaimed, so an
    abandoned stream leaves no work behind and nobody waits on a tile no thread has
    claimed.
    """
    keys = [_window(first_step, steps, modes, dt, *stride)
            for first_step, steps, *stride in windows]
    states = _stream_states(seeds)
    ahead = _Block(states, *keys[0]).start() if keys else None
    try:
        for k, key in enumerate(keys):
            block = ahead
            ahead = block.then = (_Block(states, *keys[k + 1]).start() if k + 1 < len(keys)
                                  else None)
            yield gaussian_block(seeds, *key[:4], _started=block)
    finally:
        if ahead is not None:
            ahead.settle()


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
