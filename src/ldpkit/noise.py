"""Driving noise: counter-keyed Gaussian increment records.

Every mode-k increment over a grid step is an independent N(0, dt) draw.
Draws are produced by hashing a 64-bit counter derived from
(seed, absolute step index, mode) through a splitmix-style finalizer and
mapping the resulting uniform through the inverse normal CDF.  There is
no generator state: any sub-window of any window regenerates bit-identical
values, so a realization is never stored, only redrawn.  The batched sampler
draws each seed's realization window by window, a pullback ladder draws each
segment's words when the segment starts (the words a record over its longest
rung's grid would hold), and the shifted realization theta_s w is the same
seed's words s/dt steps later.

Step indices are absolute, anchored at t = 0 (index floor is round(t/dt)),
and may be negative; a zigzag bijection folds them into the counter.

A gaussian_stream window may be strided: with stride m its steps are m
lattice steps long, and step i takes the word of lattice step
first_step + m*i, scaled to N(0, m*dt).  It is the block at m*dt of all
m*steps lattice steps, sliced [:, ::m], without drawing the words it skips.
The counter map is unchanged (no stream-version bump), so a strided window
shares no word with an unstrided one over other lattice steps.  The batched
sampler steps its burn-in on such windows.

Large blocks are filled in tiles of a few steps.  Each tile is one task on a
shared pool of one thread fewer than the CPUs this process may run on.  The
caller withdraws the tiles no pool thread has begun, from the last one back,
and fills them itself; then it waits only on the begun ones, filling the next
block's queued tiles meanwhile.  gaussian_stream keeps one block ahead: the
pool fills the next window's block while the caller uses this one, and the
stream hands that block to gaussian_block, where the caller finishes it.
Each word depends on its counter alone and each tile writes its own rows, so
neither the thread that fills a tile nor the stream can change a value.

The transform is scipy.special.ndtri, imported by the first block drawn rather
than with the module (about 0.23 s and 26 MiB in a fresh process; see ndtri), so
a process that draws no noise never loads it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .grids import TimeGrid, _as_int, _as_table, check_positive, step_offset, whole_steps

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_SALT_STREAM = np.uint64(0x243F6A8885A308D3)
_SALT_DERIVE = np.uint64(0x452821E638D01377)

_U64_MAX = (1 << 64) - 1
# words per tile (256 KiB, in cache): a tile takes the GIL about a dozen times, so a pool
# thread filling large tiles seldom holds up a caller that steps between them
_TILE_WORDS = 1 << 15
# the CPUs this process may run on: the caller and _WORKERS - 1 pool threads fill tiles
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = (None, None)  # (pid, ThreadPoolExecutor), made on first use
_pool_lock = threading.Lock()


def _as_u64(seed: int) -> np.uint64:
    seed = _as_int(seed, "seed")
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
    index = _as_int(index, "stream index")
    if index < 0:
        raise InputError(f"stream index must be non-negative, got {index}")
    return int(derive_seeds_from(seed, index, 1)[0])


def derive_seeds_from(seed: int, first_index: int, count: int) -> np.ndarray:
    """Child seeds for indices [first_index, first_index + count), as uint64; index i
    takes counter i + 1, so the last index is 2**64 - 2."""
    first_index = _as_int(first_index, "first stream index")
    count = _as_int(count, "stream count")
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


def ndtri(u, out=None):
    """scipy.special.ndtri, the stream's inverse normal CDF, with scipy.special
    imported at the first call rather than with ldpkit.

    In a fresh process with numpy loaded, that import takes about 0.23 s and 26 MiB of
    resident memory (scipy 1.17), so a process that draws no noise does not pay it.
    _Block.start makes it on the calling thread before it queues a tile, so no pool
    thread does.  Each tile looks this name up as it runs.
    """
    import scipy.special

    return scipy.special.ndtri(u, out=out)


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
    first_step = _as_int(first_step, "first step")
    steps = _as_int(steps, "step count")
    modes = _as_int(modes, "mode count")
    stride = _as_int(stride, "stride")
    if modes < 1:
        raise InputError(f"mode count must be positive, got {modes}")
    if steps < 0:
        raise InputError("step count must be non-negative")
    if stride < 1:
        raise InputError(f"stride must be positive, got {stride}")
    check_positive(dt, "dt")
    return first_step, steps, modes, float(dt), stride


class _Block:
    """One block in the making.  Each tile of `rows` steps is one task on the pool; the
    caller withdraws the tiles no pool thread has begun and fills them itself."""

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
        self.tasks = []  # one future per tile, or none: the caller fills every tile
        self.unasked = self.tiles  # tiles [0, unasked) the caller has not tried to withdraw
        self.then = None  # the block after this one in its stream, if any

    def start(self) -> "_Block":
        """Put each tile on the pool as one task; a one-tile block makes no pool."""
        if min(_WORKERS, self.tiles) > 1:
            import scipy.special  # noqa: F401  ndtri's first import, not on a pool thread
            pool = _executor()
            self.tasks = [pool.submit(self._fill_tile, tile) for tile in range(self.tiles)]
        return self

    def _fill_tile(self, tile: int) -> None:
        rows = slice(tile * self.rows, (tile + 1) * self.rows)
        x = self.step_part[rows] + self.base
        _mix64(x, self.out[rows].view(np.uint64))  # the tile's rows are its scratch
        # 53-bit uniform (k + 0.5) 2**-53, inside (0, 1) but for the top word k = 2**53 - 1,
        # which rounds to 1.0, where ndtri is inf
        u = np.add(np.right_shift(x, np.uint64(11), out=x), 0.5, out=self.out[rows])
        u *= 2.0**-53
        ndtri(u, out=u)
        u *= self.scale

    def fill_last(self) -> bool:
        """Withdraw the last tile no pool thread has begun and fill it here; False if
        there is none."""
        while self.unasked:
            self.unasked -= 1
            if not self.tasks or self.tasks[self.unasked].cancel():
                self._fill_tile(self.unasked)
                return True
        return False

    def settle(self) -> None:
        """Withdraw every tile no pool thread has begun and wait for the begun ones: no
        thread is left working on the block.  (Waiting first would count a withdrawn
        tile as pending until a pool thread dequeued it.)"""
        for task in [task for task in self.tasks if not task.cancel()]:
            task.exception()  # waits; result() raises the tile's error

    def result(self) -> np.ndarray:
        """The block, as (seeds, steps, modes): this thread fills the tiles no pool thread
        has begun, and the first error of a pool thread's tile is raised here."""
        try:
            while self.fill_last():
                pass
            begun = [task for task in self.tasks if not task.cancelled()]
            # while the pool writes this block's last tiles, fill the next block's
            while (self.then is not None and not all(task.done() for task in begun)
                   and self.then.fill_last()):
                pass
        finally:
            self.settle()
        for task in begun:
            task.result()
        _, steps, modes, _, _ = self.key
        return self.out.reshape(steps, len(self.states), modes).transpose(1, 0, 2)


def gaussian_block(seeds, first_step: int, steps: int, modes: int, dt: float, *,
                   _started: Optional[_Block] = None) -> np.ndarray:
    """N(0, dt) increments for absolute steps [first_step, first_step+steps).

    Returns shape (len(seeds), steps, modes); each seed indexes an
    independent stream, each (step, mode) cell a fixed counter word.  It is
    the step-major (1, 0, 2) transpose of a C-contiguous (steps, seeds, modes) array.
    _started is the block of these words gaussian_stream started for this call, whose
    tiles have been queued on the pool; it is finished here rather than started anew
    (a strided window's block, too).
    """
    if _started is None:
        _started = _Block(_stream_states(seeds), *_window(first_step, steps, modes, dt)).start()
    return _started.result()


def gaussian_stream(seeds, windows, modes: int, dt: float):
    """gaussian_block for each window, (first_step, steps) or (first_step, steps,
    stride), in turn, the pool filling the next window's block while the caller uses
    this one.

    A generator that keeps one block in flight: when the caller asks for a block, the
    next one's tiles are queued on the pool, then the asked one is handed to
    gaussian_block, where the caller withdraws and fills the tiles no pool thread has
    begun; while the pool writes the begun ones, the caller fills the next block's
    queued tiles.  So two blocks are alive at a time, if the caller drops each before
    asking for the next.  However the generator ends, closed (in a try/finally) or run
    out, the block in flight is withdrawn and its begun tiles waited for, so an
    abandoned stream leaves no work behind.
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
    [t_i, t_i + dt); shape (grid.steps, modes).
    """

    grid: TimeGrid
    increments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "increments",
                           _as_table(self.increments, self.grid.steps, "increment record"))

    @property
    def modes(self) -> int:
        return self.increments.shape[1]

    def restrict(self, grid: TimeGrid) -> "NoisePath":
        """The record over a sub-window with the same spacing."""
        off = step_offset(self.grid, grid)
        return NoisePath(grid, self.increments[off : off + grid.steps])

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
    block = gaussian_block([seed], _start_step(grid), grid.steps, modes, grid.dt)
    return NoisePath(grid, block[0])


def _start_step(grid: TimeGrid) -> int:
    """The step of grid.t_start on the grid.dt lattice anchored at t = 0; InputError
    unless it is on that lattice."""
    return whole_steps(grid.t_start / grid.dt, f"window start {grid.t_start} is not on the "
                       f"dt = {grid.dt} step lattice anchored at t = 0")
