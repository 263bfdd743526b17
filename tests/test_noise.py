import concurrent.futures
import hashlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldpkit import (
    InputError,
    NoisePath,
    TimeGrid,
    derive_seed,
    from_dt,
    load_noise,
    sample_noise,
    save_noise,
    shift_noise,
)
from ldpkit import noise
from ldpkit.noise import derive_seeds_from, gaussian_block


def test_sampling_is_deterministic():
    g = from_dt(0.0, 1.0, 0.01)
    a = sample_noise(g, 3, seed=42)
    b = sample_noise(g, 3, seed=42)
    assert np.array_equal(a.increments, b.increments)
    c = sample_noise(g, 3, seed=43)
    assert not np.array_equal(a.increments, c.increments)


def test_windows_on_common_lattice_share_increments():
    # regeneration keys on the absolute step index, not the window
    dt = 0.01
    wide = sample_noise(from_dt(-1.0, 1.0, dt), 2, seed=7)
    late = sample_noise(from_dt(0.0, 1.0, dt), 2, seed=7)
    assert np.array_equal(wide.increments[100:], late.increments)


def test_restrict_is_a_slice():
    dt = 0.02
    full = sample_noise(from_dt(-2.0, 2.0, dt), 1, seed=5)
    sub = full.restrict(from_dt(-1.0, 0.5, dt))
    assert sub.grid.steps == 75
    assert np.array_equal(sub.increments, full.increments[50:125])
    assert sub.seed == 5
    with pytest.raises(InputError):
        full.restrict(from_dt(-3.0, 0.0, dt))  # sticks out of the record
    with pytest.raises(InputError):
        full.restrict(from_dt(-1.0, 0.0, 0.01))  # different spacing


def test_restrict_matches_fresh_sampling():
    dt = 0.005
    full = sample_noise(from_dt(-1.0, 1.0, dt), 4, seed=11)
    window = from_dt(-0.5, 0.25, dt)
    assert np.array_equal(
        full.restrict(window).increments, sample_noise(window, 4, seed=11).increments
    )


def test_shift_semantics():
    dt = 0.1
    full = sample_noise(from_dt(0.0, 2.0, dt), 2, seed=3)
    shifted = shift_noise(full, 0.5)
    assert shifted.grid.t_start == 0.0
    assert shifted.grid.t_end == pytest.approx(1.5)
    assert np.array_equal(shifted.increments, full.increments[5:])
    same = shift_noise(full, 0.0)
    assert np.array_equal(same.increments, full.increments)


def test_shift_rejects_bad_offsets():
    full = sample_noise(from_dt(0.0, 1.0, 0.1), 1, seed=0)
    with pytest.raises(InputError):
        shift_noise(full, -0.1)
    with pytest.raises(InputError):
        shift_noise(full, 0.05)
    with pytest.raises(InputError):
        shift_noise(full, 1.0)  # nothing left


def test_cumulative_starts_at_zero():
    full = sample_noise(from_dt(0.0, 1.0, 0.01), 3, seed=9)
    w = full.cumulative()
    assert w.shape == (101, 3)
    assert np.all(w[0] == 0.0)
    assert np.allclose(w[-1], full.increments.sum(axis=0))


def test_save_load_roundtrip(tmp_path):
    full = sample_noise(from_dt(-1.5, 0.5, 0.01), 2, seed=123)
    f = tmp_path / "noise.bin"
    save_noise(full, f)
    back = load_noise(f)
    assert back.seed == 123
    assert back.grid == full.grid
    assert np.array_equal(back.increments, full.increments)


def test_save_load_keeps_seed_none(tmp_path):
    g = from_dt(0.0, 0.3, 0.1)
    anon = NoisePath(g, np.zeros((3, 1)))
    f = tmp_path / "anon.bin"
    save_noise(anon, f)
    assert load_noise(f).seed is None


def test_load_rejects_truncation(tmp_path):
    full = sample_noise(from_dt(0.0, 1.0, 0.1), 2, seed=1)
    f = tmp_path / "cut.bin"
    save_noise(full, f)
    data = f.read_bytes()
    f.write_bytes(data[:-8])
    with pytest.raises(InputError):
        load_noise(f)


def test_record_validation():
    g = from_dt(0.0, 1.0, 0.1)
    with pytest.raises(InputError):
        NoisePath(g, np.zeros((5, 2)))  # wrong step count
    bad = np.zeros((10, 2))
    bad[3, 1] = np.nan
    with pytest.raises(InputError):
        NoisePath(g, bad)


def test_derive_seed_matches_vector_form():
    for seed in (0, 1, 2**63, 2**64 - 1):
        vec = derive_seeds_from(seed, 0, 16)
        assert vec.dtype == np.uint64
        for j in range(16):
            assert derive_seed(seed, j) == int(vec[j])
    offset = derive_seeds_from(5, 100, 4)
    assert [int(v) for v in offset] == [derive_seed(5, 100 + j) for j in range(4)]


def test_derived_seed_indices_are_integers_on_the_counter():
    # a float or bool index is refused, not truncated; a range past the 64-bit
    # counter is refused by name, not left to numpy's overflow
    for index in (1.5, True):
        with pytest.raises(InputError, match="stream index must be an integer"):
            derive_seed(0, index)
    with pytest.raises(InputError, match="stream count must be an integer"):
        derive_seeds_from(0, 0, 2.7)
    with pytest.raises(InputError, match="first stream index must be an integer"):
        derive_seeds_from(0, 0.0, 2)
    for first, count in ((2**70, 1), (2**64 - 1, 1), (2**64 - 3, 3)):
        with pytest.raises(InputError, match="64-bit counter"):
            derive_seeds_from(0, first, count)
    with pytest.raises(InputError, match="64-bit counter"):
        derive_seed(0, 2**70)
    # the last index on the counter, and numpy integers
    assert derive_seed(0, 2**64 - 2) == int(derive_seeds_from(0, 2**64 - 3, 2)[1])
    assert derive_seed(7, np.int64(3)) == derive_seed(7, 3)


def test_derived_seeds_are_distinct():
    vec = derive_seeds_from(0, 0, 10_000)
    assert len(np.unique(vec)) == 10_000
    assert derive_seed(0, 0) != derive_seed(1, 0)


def test_sample_noise_rejects_off_lattice_windows():
    # snapping the start to the t = 0 anchored lattice would hand out the
    # increments of [0, 1] for this window
    with pytest.raises(InputError):
        sample_noise(TimeGrid(0.00049, 1.00049, 1000), 2, seed=1)
    on = sample_noise(TimeGrid(-0.5, 0.5, 1000), 2, seed=1)
    assert on.increments.shape == (1000, 2)


def test_gaussian_block_shape_and_anchoring():
    block = gaussian_block([1, 2, 3], -50, 20, 4, 0.01)
    assert block.shape == (3, 20, 4)
    # one seed, same absolute steps, different call layout
    single = gaussian_block([2], -50, 20, 4, 0.01)
    assert np.array_equal(block[1], single[0])
    # window split at an interior step reproduces the same values
    left = gaussian_block([1], -50, 10, 4, 0.01)
    right = gaussian_block([1], -40, 10, 4, 0.01)
    assert np.array_equal(np.concatenate([left, right], axis=1)[0], block[0])


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def test_gaussian_block_frozen_values():
    # the (seed, step, mode) -> hash -> ndtri stream is a reproducibility
    # contract; changing these bytes needs a stream-version bump
    block = gaussian_block([1, 2, 3], -50, 20, 4, 0.01)
    assert sha256(block) == "dbe5b450d624d1d157f93caec480bac4ec642937b8b6b4a96c19e62068bf487a"


def test_gaussian_block_split_goldens():
    # blocks of many tiles, which the caller and the pool's threads claim one at
    # a time: 9 tiles of 5 steps (the last of 1), and 5 tiles of 1 step (18000
    # words per step)
    block = gaussian_block(derive_seeds_from(3, 0, 2000), -700, 41, 3, 0.01)
    assert sha256(block) == "923de5e01147e8614042930952da61d6775608d17b0186560b6a0ffc7b605c0d"
    block = gaussian_block(derive_seeds_from(4, 0, 9000), -3, 5, 2, 0.01)
    assert sha256(block) == "cfb60f2e3216287a8d4db0dae96d87bbc0e6df9767d8900d1992dbcc81d3c890"


@pytest.mark.parametrize("seeds, first, steps, modes", [
    (derive_seeds_from(3, 0, 2000), -700, 41, 3),  # 9 tiles, the last one short
    (derive_seeds_from(4, 0, 9000), -3, 5, 2),     # 5 tiles of one step
    (derive_seeds_from(5, 0, 3000), 0, 0, 2),      # no steps
    ([1, 2, 3], -50, 20, 4),                       # one tile
])
def test_gaussian_block_split_cannot_change_values(monkeypatch, seeds, first, steps, modes):
    blocks = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(noise, "_WORKERS", workers)
        blocks.append(gaussian_block(seeds, first, steps, modes, 0.01))
    assert blocks[0].shape == (len(seeds), steps, modes)
    for b in blocks[1:]:
        assert np.array_equal(b, blocks[0])
        assert b.strides == blocks[0].strides


def test_one_tile_block_makes_no_pool(monkeypatch):
    monkeypatch.setattr(noise, "_WORKERS", 3)
    monkeypatch.setattr(noise, "_pool", (None, None))
    gaussian_block([1, 2, 3], -50, 20, 4, 0.01)
    gaussian_block(derive_seeds_from(5, 0, 3000), 0, 0, 2, 0.01)
    assert noise._pool == (None, None)


def test_concurrent_callers_share_one_pool(monkeypatch):
    # more calling threads than CPUs, switching often, race for a fresh pool
    made = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.05)  # widen the window between checking for a pool and setting it
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(noise, "_WORKERS", 3)
    monkeypatch.setattr(noise, "_pool", (None, None))
    seeds = derive_seeds_from(3, 0, 2000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as callers:
            calls = [callers.submit(gaussian_block, seeds, -700, 41, 3, 0.01) for _ in range(6)]
            digests = {sha256(c.result(timeout=60)) for c in calls}
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert digests == {"923de5e01147e8614042930952da61d6775608d17b0186560b6a0ffc7b605c0d"}
    assert len(made) == 1


def _pieces(start, piece):
    """(first_step, steps) windows from start to 0 as the sampler cuts them: each ends
    after a step j with j % piece == 0, or at 0."""
    edges = [start, *range(start + (-start) % piece + 1, 0, piece), 0]
    return [(a, b - a) for a, b in zip(edges, edges[1:])]


@pytest.mark.parametrize("seeds, windows, modes", [
    # a partial first interval, then quarter intervals, as the sampler draws them
    (derive_seeds_from(3, 0, 2000), _pieces(-700, 64), 3),
    # one-step tiles (18000 words a step): one-tile pieces and two-tile ones
    (derive_seeds_from(4, 0, 9000), [(-3, 1), (-2, 2), (0, 1), (1, 1)], 2),
    # zero-step windows first, between and last
    (derive_seeds_from(5, 0, 700), [(-9, 0), (-9, 40), (31, 0), (31, 0), (31, 17), (48, 0)], 1),
    ([], [(0, 4), (4, 4)], 2),  # no seeds
])
def test_stream_is_per_window_blocks_byte_for_byte(monkeypatch, seeds, windows, modes):
    want = [gaussian_block(seeds, first, steps, modes, 0.01) for first, steps in windows]
    for workers in (1, 2, 3):
        monkeypatch.setattr(noise, "_WORKERS", workers)
        got = list(noise.gaussian_stream(seeds, windows, modes, 0.01))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
            assert g.strides == w.strides


@pytest.mark.parametrize("seeds, first, steps, modes, stride", [
    (derive_seeds_from(3, 0, 2000), -701, 64, 2, 6),  # many tiles, as the burn-in draws them
    (derive_seeds_from(4, 0, 9000), -3, 5, 2, 2),     # one-step tiles
    ([1, 2, 3], -50, 20, 4, 3),                       # one tile
    ([1, 2, 3], 7, 0, 4, 5),                          # no steps
    ([1, 2, 3], -50, 20, 4, 1),                       # the unstrided block
])
def test_strided_window_is_every_stride_th_word(monkeypatch, seeds, first, steps, modes,
                                                stride):
    # stride m: step i is m lattice steps long and takes step first + m*i's word, so
    # the stream's block is the unstrided one at m*dt sliced [:, ::m], byte for byte,
    # without the words it skips; the windows around it are drawn at dt as before
    dt = 0.01
    fine = gaussian_block(seeds, first, steps * stride, modes, stride * dt)[:, ::stride]
    for workers in (1, 2, 3):
        monkeypatch.setattr(noise, "_WORKERS", workers)
        got = list(noise.gaussian_stream(seeds, [(first - 9, 9), (first, steps, stride),
                                                 (first, steps)], modes, dt))
        assert got[1].tobytes() == fine.tobytes()
        assert got[0].tobytes() == gaussian_block(seeds, first - 9, 9, modes, dt).tobytes()
        assert got[2].tobytes() == gaussian_block(seeds, first, steps, modes, dt).tobytes()


@pytest.mark.parametrize("stride", [0, -2, 2.0, True, False, None])
def test_stride_must_be_a_positive_integer(stride):
    with pytest.raises(InputError, match="stride"):
        noise._window(0, 4, 2, 0.1, stride)
    with pytest.raises(InputError, match="stride"):
        next(noise.gaussian_stream([1, 2], [(0, 4, stride)], 2, 0.1))
    assert noise._window(0, 4, 2, 0.1, np.int64(3))[-1] == 3


def test_concurrent_streams_keep_their_own_blocks(monkeypatch):
    # more streaming threads than CPUs, switching often, on one pool: each stream
    # hands over only the blocks it started, and every piece is its window's words
    monkeypatch.setattr(noise, "_WORKERS", 3)
    windows = _pieces(-300, 64)
    seeds = [derive_seeds_from(s, 0, 700) for s in range(6)]
    want = [[gaussian_block(sd, first, steps, 2, 0.01).tobytes() for first, steps in windows]
            for sd in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as callers:
            calls = [callers.submit(lambda sd: [b.tobytes() for b in
                                                noise.gaussian_stream(sd, windows, 2, 0.01)], sd)
                     for sd in seeds]
            got = [c.result(timeout=60) for c in calls]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_other_calls_between_pieces_get_their_own_words(monkeypatch):
    # the stream hands its next block to its own call only: a thread's other calls
    # between two pieces draw their own words, and the pieces join up
    monkeypatch.setattr(noise, "_WORKERS", 2)
    seeds = derive_seeds_from(3, 0, 2000)
    stream = noise.gaussian_stream(seeds, [(-700, 20), (-680, 21)], 3, 0.01)
    first = next(stream)
    other = gaussian_block(seeds[:1000], -680, 21, 3, 0.01)  # the next window, other seeds
    second = next(stream)
    whole = gaussian_block(seeds, -700, 41, 3, 0.01)
    assert sha256(whole) == "923de5e01147e8614042930952da61d6775608d17b0186560b6a0ffc7b605c0d"
    assert np.concatenate([first, second], axis=1).tobytes() == whole.tobytes()
    assert other.tobytes() == whole[:1000, 20:].tobytes()


def test_closing_a_stream_unclaims_the_block_in_flight(slow_tiles):
    seeds = derive_seeds_from(3, 0, 2000)
    windows = _pieces(-700, 64)
    stream = noise.gaussian_stream(seeds, windows, 3, 0.01)
    next(stream)  # the pool has begun on the second piece
    stream.close()
    filled = slow_tiles.filled
    assert slow_tiles.pool_idles_at_once()
    assert slow_tiles.filled == filled
    rows = max(1, noise._TILE_WORDS // (len(seeds) * 3))
    assert filled < sum(-(-steps // rows) for _, steps in windows[:2])


def test_a_failed_tile_is_raised_by_the_caller(monkeypatch):
    # a tile a pool thread could not write is an error of the call, not stale memory
    monkeypatch.setattr(noise, "_WORKERS", 2)
    caller = threading.get_ident()
    real = noise.ndtri

    def pool_fails(u, out):
        if threading.get_ident() != caller:
            raise MemoryError("tile")
        return real(u, out=out)

    monkeypatch.setattr(noise, "ndtri", pool_fails)
    seeds = derive_seeds_from(3, 0, 2000)
    failed = 0
    for _ in range(20):  # the pool thread claims a tile unless the caller takes all 21 first
        try:
            gaussian_block(seeds, -700, 41, 3, 0.01)
        except MemoryError:
            failed += 1
    assert failed


@pytest.mark.parametrize("first, steps, modes, dt", [
    (0, 4, 2, -0.1),
    (0, 4, 2, 0.0),
    (0, 4, 2, np.nan),
    (0, 4, 2, np.inf),
    (0.5, 4, 2, 0.1),
    (0, 4.0, 2, 0.1),
    (0, 4, 2.0, 0.1),
    (True, 4, 2, 0.1),
    (0, 4, 0, 0.1),
    (0, -1, 2, 0.1),
])
def test_gaussian_block_rejects_bad_scalars(first, steps, modes, dt):
    with pytest.raises(InputError):
        gaussian_block([1, 2], first, steps, modes, dt)


def test_gaussian_block_takes_numpy_integers():
    block = gaussian_block([1, 2], -5, 6, 3, 0.1)
    same = gaussian_block([1, 2], np.int64(-5), np.int32(6), np.uint8(3), np.float64(0.1))
    assert np.array_equal(block, same)


def test_gaussian_block_is_step_major():
    block = gaussian_block([1, 2, 3], -50, 20, 4, 0.01)
    assert block.shape == (3, 20, 4)
    # each step's draws for all seeds are one contiguous run
    assert block.transpose(1, 0, 2).flags.c_contiguous
    assert block.strides == (4 * 8, 3 * 4 * 8, 8)


def test_seed_arrays_and_seed_lists_agree():
    seeds = derive_seeds_from(9, 0, 5)  # as ints, some are above 2**63
    block = gaussian_block(seeds, 7, 12, 3, 0.1)
    assert np.array_equal(block, gaussian_block([int(s) for s in seeds], 7, 12, 3, 0.1))
    # other integer arrays take the per-seed checks
    assert np.array_equal(gaussian_block(np.array([1, 2]), 7, 12, 3, 0.1),
                          gaussian_block(np.array([1, 2], dtype=np.uint64), 7, 12, 3, 0.1))
    for bad in ([1, -1], np.array([1, -1]), [1.0], [True]):
        with pytest.raises(InputError):
            gaussian_block(bad, 0, 4, 1, 0.1)


def test_increment_moments():
    dt = 0.01
    g = from_dt(0.0, 100.0, dt)
    inc = sample_noise(g, 2, seed=2024).increments.ravel()
    n = inc.size
    assert abs(inc.mean()) < 4 * np.sqrt(dt / n)
    assert inc.var() == pytest.approx(dt, rel=0.05)
    # kurtosis of a Gaussian is 3
    assert np.mean((inc / np.sqrt(dt)) ** 4) == pytest.approx(3.0, rel=0.1)


def test_modes_are_uncorrelated():
    inc = sample_noise(from_dt(0.0, 50.0, 0.01), 3, seed=77).increments
    corr = np.corrcoef(inc.T)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    base=st.integers(min_value=-500, max_value=500),
    steps=st.integers(min_value=1, max_value=64),
    cut=st.data(),
)
def test_block_concatenation_property(seed, base, steps, cut):
    k = cut.draw(st.integers(min_value=0, max_value=steps))
    whole = gaussian_block([seed], base, steps, 2, 0.5)[0]
    first = gaussian_block([seed], base, k, 2, 0.5)[0]
    rest = gaussian_block([seed], base + k, steps - k, 2, 0.5)[0]
    assert np.array_equal(np.concatenate([first, rest]), whole)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_increments_always_finite(seed):
    inc = gaussian_block([seed], 0, 256, 3, 1e-3)
    assert np.all(np.isfinite(inc))


def test_gaussian_block_refuses_non_finite_dt():
    for dt in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="dt must be positive and finite"):
            gaussian_block([0], 0, 4, 1, dt)
