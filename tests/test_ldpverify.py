import dataclasses
import hashlib
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_discrete_lyapunov
from scipy.special import erfc

from ldpkit import (
    ConfigurationError,
    DivergenceError,
    Event,
    InputError,
    InsufficientDataError,
    MCEstimate,
    NonConvergenceError,
    estimate_event,
    ldp_slope,
    make_estimate,
    sample_stationary,
    save_estimates,
    wilson_interval,
)
from ldpkit import ldpverify, make_model
from ldpkit.integrate import CHECK_EVERY, em_stepper, mode_drive
from ldpkit.ldpverify import _Z95, line_fit
from ldpkit.models import drift
from ldpkit.noise import derive_seeds_from, gaussian_block, gaussian_stream


def test_wilson_interval_values():
    lo, hi = wilson_interval(50, 100)
    # symmetric at p = 1/2
    assert lo + hi == pytest.approx(1.0)
    assert lo == pytest.approx(0.40383, abs=2e-4)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0
    assert hi0 == pytest.approx(_Z95**2 / (100 + _Z95**2), rel=1e-9)
    loN, hiN = wilson_interval(100, 100)
    assert hiN == 1.0
    with pytest.raises(InputError):
        wilson_interval(0, 0)
    # hits outside [0, n] are refused by name, not left to a math domain error
    for hits, n in ((5, 3), (-1, 3), (4, 3)):
        with pytest.raises(InputError, match="inconsistent"):
            wilson_interval(hits, n)


def test_make_estimate_zero_hits():
    e = make_estimate(0.1, "norm_ge(1)", 1000, 0)
    assert e.p_hat == 0.0
    assert e.log_scaled is None
    assert e.low_statistics
    assert e.lo95 == 0.0
    full = make_estimate(0.1, "box", 1000, 1000)
    assert full.log_scaled == pytest.approx(0.0)
    assert not full.low_statistics


def test_estimate_validation():
    with pytest.raises(InputError):
        MCEstimate(0.1, "e", 10, 11, 1.1, 0.0, 1.0, None, False)
    with pytest.raises(InputError):
        MCEstimate(0.1, "e", 10, -1, 0.0, 0.0, 1.0, None, False)
    with pytest.raises(InputError, match="inconsistent"):
        make_estimate(0.1, "e", 3, 5)


def test_event_indicators(lin_a2, ou):
    states = np.array([[0.0, 0.0], [3.0, 4.0], [-1.0, 0.5]])
    assert Event.norm_ge(2.0).indicator(lin_a2, states).tolist() == [
        False,
        True,
        False,
    ]
    assert Event.coord_ge(1, 0.5).indicator(lin_a2, states).tolist() == [
        False,
        True,
        True,
    ]
    box = Event.box([-2.0, -1.0], [2.0, 1.0])
    assert box.indicator(lin_a2, states).tolist() == [True, False, True]
    with pytest.raises(InputError):
        Event.coord_ge(5, 1.0).indicator(lin_a2, states)
    with pytest.raises(InputError):
        box.indicator(ou, np.zeros((2, 1)))
    with pytest.raises(InputError):
        Event.norm_ge(1.0).indicator(lin_a2, np.zeros(2))


def test_event_construction_validation():
    with pytest.raises(InputError):
        Event.norm_ge(-1.0)
    with pytest.raises(InputError):
        Event.coord_ge(-1, 0.0)
    with pytest.raises(InputError):
        Event.box([0.0, 0.0], [1.0])
    with pytest.raises(InputError):
        Event.box([2.0], [1.0])


def test_event_describe():
    assert Event.norm_ge(1.5).describe() == "norm_ge(1.5)"
    assert Event.coord_ge(0, 2.0).describe() == "coord_ge(0, 2)"
    assert "box" in Event.box([0.0], [1.0]).describe()


def test_sampling_is_deterministic_and_seed_sensitive(ou):
    a = sample_stationary(ou, 0.1, 64, seed=1, dt=0.01)
    b = sample_stationary(ou, 0.1, 64, seed=1, dt=0.01)
    c = sample_stationary(ou, 0.1, 64, seed=2, dt=0.01)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64, 1)


def test_sampling_frozen_values(ou, lin_a1, lin_a2, monkeypatch):
    # frozen-seed samples are part of the reproducibility contract: a faster
    # engine must reproduce these bytes exactly.  The first digest of each row was
    # pinned before the coarse burn-in and is reproduced with one fine step per
    # coarse step; the second is the default path's, with coarse steps until the fine
    # tail.  ou at dt 0.01 and burgers1d at its default dt already take m = 1, the
    # planar models at dt 0.005 m = 6.
    def sha256(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()

    small = make_model("burgers1d", {"grid": 19, "K": 8})
    rows = [
        (ou, 0.1, 64, 1, 0.01,
         "702562bdcfe8ca57951e18d30f8f6e6bc3c011230bc04392e7ffad9fd59633cc",
         "702562bdcfe8ca57951e18d30f8f6e6bc3c011230bc04392e7ffad9fd59633cc"),
        (lin_a1, 0.2, 64, 5, 0.005,
         "03afdb8ee19056a69b7fecfc377f7127f54221e2265e7011231cccd6d4c00b5e",
         "1f0dc5950853a8ee5666520687a0e4608cc185581cf1a7b22ecdb28e83a68852"),
        # the rotation and the non-identity mode matrix: fixed-order products
        (lin_a2, 0.2, 64, 5, 0.005,
         "8ac47f6aee83db26b92d185a50de8ca015475f2c6d9597d1b954ba918cf3aa3a",
         "01632fcf2d93aeef4c29c0e881c7bd0b2a32257ad43d1aeb8878c26b6916663d"),
        (small, 0.05, 8, 3, None,
         "c37421b6955eb865e31706a67bb6153aa2d48babeb879f79ae5e1e5c1b386c4d",
         "c37421b6955eb865e31706a67bb6153aa2d48babeb879f79ae5e1e5c1b386c4d"),
    ]
    for model, eps, n, seed, dt, fine, default in rows:
        with monkeypatch.context() as m:
            m.setattr(ldpverify, "_burn_stride", lambda model, dt: 1)
            assert sha256(sample_stationary(model, eps, n, seed=seed, dt=dt)) == fine, model.name
        assert sha256(sample_stationary(model, eps, n, seed=seed, dt=dt)) == default, model.name


def test_sampling_chunking_invariance(ou, all_models, monkeypatch):
    # chunk boundaries must not change the stream
    a = sample_stationary(ou, 0.1, 50, seed=3, dt=0.01)
    with monkeypatch.context() as m:
        m.setattr(ldpverify, "_DRIVE_WORDS", 2_000)  # chunks of 7 samples, the last of 1
        b = sample_stationary(ou, 0.1, 50, seed=3, dt=0.01)
    assert np.array_equal(a, b)
    # every model, over a burn-in of 700 fine steps and a joint run of 600, each
    # past two check intervals at m = 1: 5 samples in chunks of 2, 2 and 1 against
    # one chunk of 5
    for model in all_models:
        dt = model.max_stable_dt or 10 * model.default_dt
        kw = dict(dt=dt, horizons=[600 * dt, 1300 * dt], tol=1.0)
        one = sample_stationary(model, model.default_eps, 5, seed=8, **kw)
        pair = 2 * CHECK_EVERY * max(model.modes, model.dim)  # two samples per chunk
        with monkeypatch.context() as m:
            m.setattr(ldpverify, "_DRIVE_WORDS", pair)
            chunked = sample_stationary(model, model.default_eps, 5, seed=8, **kw)
        assert np.array_equal(one, chunked), model.name


# a model and two dts, the first at m = 1, the second at m > 1 where the model has a
# burn-in bound (hopf-radial has none)
_SMALL_BURGERS = make_model("burgers1d", {"grid": 19, "K": 8})
_PIECE_CASES = {
    "ou": (make_model("ou"), (0.01, 0.001)),
    "linear2d-a2": (make_model("linear2d-a2"), (0.02, 0.005)),
    "hopf-radial": (make_model("hopf-radial"), (0.001, 0.005)),
    "burgers1d": (_SMALL_BURGERS, (_SMALL_BURGERS.default_dt, _SMALL_BURGERS.default_dt / 3)),
}


def _stretch_rows(model, eps, seeds, short, long, joint, dt):
    """The sampler's time-0 rows, each stretch stepped by one advance call on one noise
    window: the burn-in and `joint` coarse steps of both horizons, then fine steps to 0."""
    m = ldpverify._burn_stride(model, dt)
    burn = -(-(long - short) // m)  # whole coarse steps, the start rounded down
    tail = short - joint * m
    n = len(seeds)
    stretches = [(n, -short - burn * m, burn, m), (2 * n, -short, joint, m),
                 (2 * n, -tail, tail, 1)]
    windows = [(first, steps, stride) for _, first, steps, stride in stretches]
    x = np.full((2 * n, model.dim), model.pullback_init)
    advance = em_stepper(model)
    for (rows, first, steps, stride), inc in zip(stretches, gaussian_stream(seeds, windows,
                                                                         model.modes, dt)):
        times = np.arange(first, first + steps * stride, stride) * dt
        advance(model, x[:rows], times, stride * dt, mode_drive(model, eps, inc))
    return x.reshape(2, n, model.dim)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_PIECE_CASES)), coarse=st.booleans(),
       tail=st.integers(1, 700), joint=st.just(0) | st.integers(0, 400),
       tail_by=st.integers(0, 99), burn=st.integers(1, 700), short_by=st.integers(0, 99),
       n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_piece_cuts_never_change_bytes(name, coarse, tail, joint, tail_by, burn, short_by, n,
                                       seed):
    # however the stretches fall into pieces and check intervals, the samples are
    # those of stepping each stretch whole: a burn-in of `burn` coarse steps, its
    # fine length up to m - 1 steps short of a whole number of them, `joint` coarse
    # steps of both horizons, then a fine tail of `tail` steps.  The drawn _FINE_TAIL
    # is up to m - 1 fine steps shorter than the tail it rounds up to, or, with no
    # joint coarse step, up to 99 steps longer than the shorter horizon that caps it.
    # With m = 1 the joint run is all fine
    model, dts = _PIECE_CASES[name]
    dt = dts[coarse]
    m = ldpverify._burn_stride(model, dt)
    assert (m > 1) == (coarse and name != "hopf-radial")
    short = tail + joint * m
    long = short + burn * m - short_by % m
    fine = tail + tail_by if joint == 0 else max(1, tail - tail_by % m)
    seeds = derive_seeds_from(seed, 0, n)
    eps = model.default_eps
    # half a step below `fine` relaxation-time steps, which ceil reads as `fine` steps
    with mock.patch.object(ldpverify, "_FINE_TAIL", (fine - 0.5) * model.relax_rate * dt):
        x = sample_stationary(model, eps, n, seed=seed, dt=dt,
                              horizons=[short * dt, long * dt], tol=1e300)
    joint = joint if m > 1 else 0
    assert np.array_equal(x, _stretch_rows(model, eps, seeds, short, long, joint, dt)[0]), (m, dt)


def test_coarse_steps_barely_shift_the_samples(ou, lin_a1, lin_a2, monkeypatch):
    # the coarse steps, the burn-in's and the joint run's, end where the fine tail of
    # 7.5 relaxation times starts; what they get wrong reaches time 0 damped by about
    # e^-7.5.  Default-horizon samples stay within 5e-3 standard deviations of those of
    # stepping at dt throughout, and within 1e-3 on average
    for model, eps, dt in ((lin_a1, 0.2, 0.005), (lin_a2, 0.2, 0.005), (ou, 0.1, 0.001)):
        assert ldpverify._burn_stride(model, dt) > 1
        x = sample_stationary(model, eps, 500, seed=5, dt=dt)
        with monkeypatch.context() as m:
            m.setattr(ldpverify, "_burn_stride", lambda model, dt: 1)
            fine = sample_stationary(model, eps, 500, seed=5, dt=dt)
        shift = np.abs(x - fine) / fine.std(axis=0)
        assert shift.max() <= 5e-3 and shift.mean() <= 1e-3, (model.name, shift.max())
    # a shorter horizon under the tail (20 time units, 6 relaxation times at m = 6) keeps
    # the joint run fine: these bytes were pinned with the burn-in alone coarse
    x = sample_stationary(lin_a2, 0.2, 64, seed=5, dt=0.005, horizons=[20.0, 40.0], tol=1.0)
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "0c356a0a2c9a10d5cfe4f66d1b9caa1f52752210f23e5bec5c0ebc7cb20eb8f9")


def test_zero_noise_samples_rest_state(ou):
    s = sample_stationary(ou, 0.0, 8, seed=0, dt=0.01)
    assert np.max(np.abs(s)) < 1e-12


def test_sample_variance_matches_ou_law(ou):
    # stationary variance eps/(2a), with the EM bias 1/(1 - a dt/2)
    eps, dt, n = 0.1, 0.01, 4000
    s = sample_stationary(ou, eps, n, seed=11, dt=dt)[:, 0]
    target = eps / 2.0 / (1.0 - dt / 2.0)
    assert s.var() == pytest.approx(target, rel=0.08)
    assert abs(s.mean()) < 4 * math.sqrt(target / n)


def test_sampling_validation(ou, burgers):
    with pytest.raises(InputError):
        sample_stationary(ou, 0.1, 0, seed=0)
    with pytest.raises(InputError):
        sample_stationary(ou, 0.1, 4, seed=0, dt=-0.1)
    with pytest.raises(ConfigurationError):
        sample_stationary(burgers, 0.05, 4, seed=0, dt=1.0)  # above ceiling
    with pytest.raises(InputError):
        sample_stationary(ou, 0.1, 4, seed=0, horizons=[5.0])
    with pytest.raises(InputError):
        sample_stationary(ou, 0.1, 4, seed=0, horizons=[5.0, 5.0])


def test_sampler_takes_exactly_two_horizons(ou, monkeypatch):
    # the sampler compares the two longest horizons only, so a shorter one would be
    # stepped and never read: any other count is refused before anything is sampled
    def sampled(*args):
        raise AssertionError("sampled before the horizons were checked")

    monkeypatch.setattr(ldpverify, "_pullback_rows", sampled)
    for horizons in ([5.0, 10.0, 20.0], [2.5, 5.0, 10.0, 20.0]):
        with pytest.raises(InputError, match="exactly two horizons"):
            sample_stationary(ou, 0.1, 4, seed=0, horizons=horizons)
        with pytest.raises(InputError, match="exactly two horizons"):
            estimate_event(ou, Event.norm_ge(0.5), eps_list=[0.2, 0.1], n_samples=4,
                           horizons=horizons)


def test_negative_horizon_is_a_config_mistake(ou):
    # refused before sampling, not reported as a pullback gap
    with pytest.raises(InputError, match="positive"):
        sample_stationary(ou, 0.1, 10, 0, horizons=[-1.0, 20.0])


def test_sampling_reports_divergence(ou):
    # at dt = 2.5 an EM step maps x to -1.5 x + noise, and ou takes m = 1.  Horizons
    # of 40 and 80 steps make a burn-in of 40 steps, checked only at its end, the
    # join, after its step 39 (t = -102.5), which sees the blow-up
    with pytest.raises(DivergenceError) as exc:
        sample_stationary(ou, 0.1, 4, seed=0, dt=2.5, horizons=[100, 200])
    assert exc.value.step == 39
    assert exc.value.time == -102.5


def test_sampling_divergence_after_many_check_intervals(ou):
    # at dt = 2.02 an EM step maps x to -1.02 x + noise; the 1800-step burn-in is
    # checked after every CHECK_EVERY of its steps, counted from its start, and is
    # first seen past the blow-up norm by the third check, after its step 767
    with pytest.raises(DivergenceError) as exc:
        sample_stationary(ou, 0.1, 3, seed=0, dt=2.02,
                          horizons=[1200 * 2.02, 3000 * 2.02])
    assert exc.value.step == 3 * CHECK_EVERY - 1 == 767
    assert exc.value.time == -4510.66
    # the 10-step burn-in ends below the blow-up norm; the joint run counts its
    # checks from the join, and its third sees the blow-up
    with pytest.raises(DivergenceError) as exc:
        sample_stationary(ou, 0.1, 3, seed=0, dt=2.02,
                          horizons=[1200 * 2.02, 1210 * 2.02])
    assert exc.value.step == 10 + 3 * CHECK_EVERY - 1 == 777
    assert exc.value.time == -874.66


@pytest.mark.parametrize("stop", [DivergenceError, KeyboardInterrupt])
def test_an_abandoned_run_leaves_no_noise_work(ou, monkeypatch, slow_tiles, stop):
    # when a run leaves the sampler early, the piece in flight is withdrawn first:
    # no tile is filled after the error, a task on the noise pool runs at once, and
    # the next gaussian_block call gives its golden bytes
    kw = dict(dt=2.02, horizons=[1200 * 2.02, 3000 * 2.02])  # diverges some pieces in
    if stop is KeyboardInterrupt:
        kw = dict(dt=0.01, horizons=[10.0, 20.0])
        stepper, calls = ldpverify.em_stepper, []

        def interrupted(model):
            advance = stepper(model)

            def step(*args):
                calls.append(None)
                if len(calls) == 8:
                    raise KeyboardInterrupt
                advance(*args)

            return step

        monkeypatch.setattr(ldpverify, "em_stepper", interrupted)
    with pytest.raises(stop) as exc:
        sample_stationary(ou, 0.1, 4096, seed=0, **kw)
    # the traceback, held here as a caller or a debugger may hold it, keeps the
    # sampler's frame alive: the stream is closed by the sampler, not collected
    filled = slow_tiles.filled
    assert slow_tiles.pool_idles_at_once()
    assert slow_tiles.filled == filled
    assert exc.tb is not None
    monkeypatch.undo()  # the real ndtri and pool
    block = gaussian_block(derive_seeds_from(3, 0, 2000), -700, 41, 3, 0.01)
    assert hashlib.sha256(block.tobytes()).hexdigest() == (
        "923de5e01147e8614042930952da61d6775608d17b0186560b6a0ffc7b605c0d")


def test_sampler_noise_memory_is_half_a_check_interval(lin_a1):
    # one check interval of noise is 1953 samples x 256 steps x 2 modes, about 10^6
    # words (7.6 MiB).  Quarter-interval pieces, two alive at a time, hold half of
    # that, fine or coarse.  The slack covers a tile in the making per thread (0.3 MiB
    # each), the states, the samples and per-step temporaries.  So a third live piece
    # (1.9 MiB more), one whole interval at a time (8.6 MiB at the previous engine), a
    # double buffer of whole intervals (15 MiB and more), the burn-in drawn as one
    # block (34 MiB at dt 0.01) and its m - 1 = 332 leftover fine steps drawn as one
    # block (9.9 MiB at dt 1e-4) all fail the bound.
    n = 1953
    interval = n * CHECK_EVERY * lin_a1.modes * 8
    slack = 2 * 2**20
    runs = [(0.05, None, 1e-3),  # m = 1
            (0.01, None, 1e-3),  # m = 3, over 1111 coarse steps
            # m = 333, more than four pieces' fine steps, over 300 coarse steps; the
            # 256 fine steps do not converge, which does not matter here
            (1e-4, [0.0256, 0.0256 + (333 * 299 + 332) * 1e-4], 10.0)]
    for dt, horizons, tol in runs:
        tracemalloc.start()
        try:
            sample_stationary(lin_a1, 0.2, n, seed=5, dt=dt, horizons=horizons, tol=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= interval / 2 + slack, dt


def test_burn_in_step_is_inside_the_em_stability_region(all_models):
    # EM on x' = A x is stable for a step h with |1 + h mu| < 1 over A's spectrum, i.e.
    # h < 2 |Re mu| / |mu|^2; for the nonlinear models over f' on the working domain.
    # The coarse step m dt stays inside it at each model's default dt and at
    # the dts the gate samples with (criteria 01, 02 and 05).  The nonlinear models
    # declare no ceiling, so they take m = 1
    limits = {"ou": 2.0, "linear2d-a1": 2.0 / 0.3, "linear2d-a2": 0.6 / (0.3**2 + 2.0**2),
              "periodic1d": 1.0 / 3.0,  # f' in [-6, -4]
              "hopf-radial": 0.19}  # f'(2) = -10.5 on the annulus [1.4, 2]
    for model in all_models:
        if model.name == "burgers1d":
            continue
        for dt in {model.default_dt, 1e-3, 2e-3, 5e-3}:
            m = ldpverify._burn_stride(model, dt)
            assert m * dt <= max(dt, 0.01 / model.relax_rate), (model.name, dt)
            assert m * dt < limits[model.name], (model.name, dt)
            assert m == 1 or model.nonlinear is None, (model.name, dt)
    # lambda and beta are model parameters: a fast rotation on a slow contraction
    # caps m dt by half the stability step, lambda / (lambda^2 + beta^2), not by 0.01 / lambda
    for lam, beta in ((0.1, 2.0), (0.01, 5.0), (0.05, 30.0), (1.0, 0.0)):
        model = make_model("linear2d-a2", {"lambda": lam, "beta": beta})
        for dt in (1e-4, 1e-3, 1e-2):
            m = ldpverify._burn_stride(model, dt)
            assert m * dt <= max(dt, min(0.01 / lam, lam / (lam**2 + beta**2))), (lam, beta, dt)
    # burgers1d is bound by its own ceiling: m = 2 at 64 points, 1 at its ceiling
    (burgers,) = (model for model in all_models if model.name == "burgers1d")
    for dt in (burgers.default_dt, burgers.default_dt / 3, burgers.max_stable_dt):
        m = ldpverify._burn_stride(burgers, dt)
        assert m <= burgers.max_stable_dt / dt
    assert ldpverify._burn_stride(burgers, burgers.default_dt) == 2
    assert ldpverify._burn_stride(burgers, burgers.max_stable_dt) == 1


def test_a_fast_rotation_samples_with_a_stable_burn_in():
    # lambda 0.1, beta 2 at dt 1e-3: 0.01 relaxation times would be 100 dt, where EM
    # grows |x|^2 by 1.02 a step, about e^10 over the burn-in, and the fine stretch's
    # e^-10 would leave a gap of order 1.  Half the stability step allows m = 24
    model = make_model("linear2d-a2", {"lambda": 0.1, "beta": 2.0})
    assert ldpverify._burn_stride(model, model.default_dt) == 24
    x = sample_stationary(model, 0.2, 8, seed=2)  # the pullback gap is checked inside
    assert np.all(np.abs(x) < 5.0)


@pytest.mark.parametrize("relax_rate, dt, horizons, join", [
    # m = 100: m dt = 10 maps x to -9 x + noise, past the blow-up norm in eleven
    # coarse steps, first seen by the check at the join
    (1e-3, 0.1, [100.0, 203.7], True),
    # m = 202: m dt = 2.02 maps x to -1.02 x + noise, first seen by a check after a
    # whole number of CHECK_EVERY coarse steps, well before the join
    (0.01 / (202.5 * 0.01), 0.01, [10.0, 2400.0], False),
], ids=["at the join", "after whole check intervals"])
def test_an_unstable_burn_in_step_is_a_divergence(ou, relax_rate, dt, horizons, join):
    # a spec whose relaxation rate is far below its drift's rate, and whose declared
    # stability ceiling its drift does not keep, gets a coarse step outside the EM
    # stability region; the error names the seed, and its step and time sit on the
    # fine lattice, at the last fine step the checked coarse step covers
    spec = dataclasses.replace(ou, relax_rate=relax_rate, max_stable_dt=100.0)
    m = ldpverify._burn_stride(spec, dt)
    assert m * dt > 2.0
    first, second = (-round(h / dt) for h in reversed(horizons))
    start = second - m * -(-(second - first) // m)  # whole coarse steps before the join
    with pytest.raises(DivergenceError) as exc:
        sample_stationary(spec, 0.1, 3, seed=4, dt=dt, horizons=horizons)
    seeds = [str(s) for s in derive_seeds_from(4, 0, 3)]
    assert re.search(r"derived seed (\d+)", str(exc.value)).group(1) in seeds
    step = exc.value.step
    if join:
        assert step == second - start - 1
    else:
        assert step < second - start - 1
        assert (step + 1) % (CHECK_EVERY * m) == 0
    assert exc.value.time == (start + step) * dt


def test_sampler_covariance_is_the_em_chain_law(lin_a2, non_normal):
    # for linear drift A the EM chain x' = M x + sqrt(eps dt) Q c xi, M = I + dt A, has
    # the Gaussian law N(0, eps C_dt) with C_dt = M C_dt M^T + dt Q diag(c^2) Q^T.  The
    # coarse steps leave it unchanged up to their e^-7.5 damping.  Each second moment
    # of the n samples lies within 4 standard errors sqrt((C_ii C_jj + C_ij^2) / n)
    # of it.  On linear2d-a2 at dt 0.01, C_dt is 7% above the continuous law, about 5
    # standard errors, which this check tells apart.
    eps, dt = 0.2, 0.01
    for model, n in ((lin_a2, 10_000), (non_normal, 5_000)):
        assert ldpverify._burn_stride(model, dt) > 1
        A = drift(model, np.eye(model.dim), 0.0).T
        Q = model.mode_matrix * model.mode_weights
        M = np.eye(model.dim) + dt * A
        C = eps * solve_discrete_lyapunov(M, dt * Q @ Q.T)
        x = sample_stationary(model, eps, n, seed=31, dt=dt)
        se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / n)
        assert np.all(np.abs(x.T @ x / n - C) <= 4.0 * se), model.name


def test_multiplicative_sampler_matches_the_ito_density(gradient_flow):
    # dX = -a X dt + sqrt(eps) b(X) dW with b = d0 / (1 + x^2): the Ito stationary
    # density is p ~ b^-2 exp(-V / eps), V = a((1 + x^2)^3 - 1) / (3 d0^2); its
    # variance and a tail probability by quadrature against the sampler's, which
    # steps through a state-dependent kick
    a, d0, eps, n, r = 1.0, 1.0, 0.2, 20_000, 0.5
    model = gradient_flow(None, a, d0)

    def density(x):
        return (1.0 + x * x) ** 2 / d0**2 * math.exp(-a * ((1.0 + x * x) ** 3 - 1.0)
                                                     / (3.0 * d0**2 * eps))

    mass = quad(density, -np.inf, np.inf)[0]
    var = quad(lambda x: x * x * density(x), -np.inf, np.inf)[0] / mass
    tail = 2.0 * quad(density, r, np.inf)[0] / mass
    x = sample_stationary(model, eps, n, seed=21, dt=0.005)[:, 0]
    m2 = np.mean(x * x)
    assert abs(np.mean(x)) <= 3.0 * math.sqrt(m2 / n)
    assert abs(m2 - var) <= 3.0 * math.sqrt((np.mean(x**4) - m2 * m2) / n)
    p = np.mean(np.abs(x) >= r)
    assert abs(p - tail) <= 3.0 * math.sqrt(tail * (1.0 - tail) / n)


def test_integer_arguments_refuse_floats_and_bools(ou):
    # refused as the CLI refuses them, not truncated or left to a TypeError
    for index in (1.5, 0.9, True):
        with pytest.raises(InputError, match="coordinate index must be an integer"):
            Event.coord_ge(index, 0.3)
    for n in (2.5, True):
        with pytest.raises(InputError, match="sample count must be an integer"):
            sample_stationary(ou, 0.1, n, 0)
    # numpy integers are integers
    event = Event.coord_ge(np.int64(1), 0.3)
    assert event == Event.coord_ge(1, 0.3) and type(event.index) is int
    assert np.array_equal(sample_stationary(ou, 0.1, np.int64(4), 0, dt=0.01),
                          sample_stationary(ou, 0.1, 4, 0, dt=0.01))


def test_sampling_reports_non_convergence(ou):
    # horizons far too short to agree at this tolerance
    with pytest.raises(NonConvergenceError) as exc:
        sample_stationary(ou, 0.5, 32, seed=0, dt=0.01,
                          horizons=[0.05, 0.1], tol=1e-9)
    assert exc.value.seed is not None
    assert exc.value.gaps and exc.value.gaps[0] >= 1e-9


def test_gaussian_tail_coverage(ou):
    # Wilson intervals should cover the exact OU tail probability;
    # EM-corrected sd keeps the comparison honest at this dt
    eps, dt, n, r = 0.2, 0.01, 2000, 0.5
    s = sample_stationary(ou, eps, n, seed=17, dt=dt)[:, 0]
    hits = int(np.count_nonzero(np.abs(s) >= r))
    est = make_estimate(eps, "abs_ge", n, hits)
    sd = math.sqrt(eps / 2.0 / (1.0 - dt / 2.0))
    p_exact = erfc(r / (sd * math.sqrt(2.0)))
    assert est.lo95 <= p_exact <= est.hi95


def test_estimate_event_pipeline(ou):
    ests = estimate_event(ou, Event.norm_ge(0.6), eps_list=[0.3, 0.2],
                          n_samples=500, seed=5, dt=0.01)
    assert [e.eps for e in ests] == [0.3, 0.2]
    assert all(e.n_samples == 500 for e in ests)
    # rarer at smaller eps
    assert ests[1].hits <= ests[0].hits
    with pytest.raises(InputError):
        estimate_event(ou, "norm_ge(0.6)", eps_list=[0.3], n_samples=10)


def test_estimate_event_checks_before_sampling(ou, monkeypatch):
    def sample(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(ldpverify, "sample_stationary", sample)
    for event in (Event.coord_ge(1, 0.5), Event.box([0.0, 0.0], [1.0, 1.0])):
        with pytest.raises(InputError, match="dim"):
            estimate_event(ou, event, eps_list=[0.3], n_samples=10)
    with pytest.raises(ConfigurationError):
        estimate_event(ou, Event.norm_ge(0.5), eps_list=[0.3, 0.9], n_samples=10)


def test_default_eps_schedule_scales_with_the_ceiling(ou, burgers, monkeypatch):
    assert ldpverify.default_eps_schedule(ou) == [0.4, 0.2, 0.1, 0.05]
    schedule = ldpverify.default_eps_schedule(burgers)
    assert len(schedule) == 4 and all(eps <= burgers.eps0 for eps in schedule)
    # so estimate_event without eps_list passes check_eps on burgers1d
    monkeypatch.setattr(ldpverify, "sample_stationary",
                        lambda model, eps, n, *args, **kwargs: np.zeros((n, model.dim)))
    ests = estimate_event(burgers, Event.norm_ge(0.5), n_samples=10)
    assert [e.eps for e in ests] == schedule


def test_full_space_event_has_zero_rate(ou):
    ests = estimate_event(ou, Event.box([-np.inf], [np.inf]),
                          eps_list=[0.3, 0.2, 0.1], n_samples=50, seed=0,
                          dt=0.01)
    for e in ests:
        assert e.p_hat == 1.0
        assert e.log_scaled == pytest.approx(0.0)
    fit = ldp_slope(ests, reference=0.0)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.distance == pytest.approx(0.0, abs=1e-12)


def test_ldp_slope_recovers_exact_rate():
    # hand-built estimates with p = exp(-0.3/eps): eps*log p = -0.3 at
    # every eps, so intercept and Richardson value are exact
    ests = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        p = math.exp(-0.3 / eps)
        n = 10**9
        hits = max(1, int(round(p * n)))
        e = make_estimate(eps, "t", n, hits)
        ests.append(e)
    fit = ldp_slope(ests, reference=0.3)
    assert fit.intercept == pytest.approx(-0.3, abs=1e-3)
    assert fit.richardson == pytest.approx(-0.3, abs=1e-3)
    assert fit.distance < 1e-3
    assert fit.n_points == 4


def test_ldp_slope_exactness_with_synthetic_points():
    # bypass hit-count rounding: exact estimates on a perfect line
    ests = [
        MCEstimate(eps, "t", 10, 5, math.exp(-0.3 / eps), 0.4, 0.6,
                   eps * math.log(math.exp(-0.3 / eps)), False)
        for eps in (0.4, 0.2, 0.1)
    ]
    fit = ldp_slope(ests, reference=0.3)
    assert fit.intercept == pytest.approx(-0.3, abs=1e-10)
    assert fit.slope == pytest.approx(0.0, abs=1e-9)
    assert max(abs(r) for r in fit.residuals) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
def test_line_fit_is_polyfit_in_any_order(n, seed, weighted):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, n)
    x[1] = x[0] + 0.5  # two distinct abscissae
    y = rng.uniform(-1.0, 1.0) * x + rng.uniform(-2.0, 2.0) + rng.normal(0.0, 0.3, n)
    w = rng.uniform(0.1, 10.0, n) if weighted else None
    fit = line_fit(x, y, w)
    oracle = np.polyfit(x, y, 1, w=w)
    scale = np.abs(oracle) + np.max(np.abs(y))  # a coefficient near 0 has no relative digits
    assert np.all(np.abs(np.array(fit) - oracle) <= 1e-12 * scale)
    # exact sums: a permutation of the points gives the same bits
    order = rng.permutation(n)
    assert line_fit(x[order], y[order], None if w is None else w[order]) == fit


def test_line_fit_exact_lines():
    # the points of test_full_space_event_has_zero_rate and of the synthetic
    # estimates: intercepts 0 and -0.3, slope 0
    assert line_fit([0.3, 0.2, 0.1], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == (0.0, 0.0)
    eps = [0.4, 0.2, 0.1]
    slope, intercept = line_fit(eps, [e * math.log(math.exp(-0.3 / e)) for e in eps])
    assert intercept == pytest.approx(-0.3, abs=1e-15)
    assert slope == pytest.approx(0.0, abs=1e-14)
    assert line_fit([1.0, 2.0, 4.0], [3.0, 5.0, 9.0], [1.0, 3.0, 0.5]) == (2.0, 1.0)


def test_ldp_slope_insufficient_data():
    few = [make_estimate(0.4, "t", 100, 10), make_estimate(0.2, "t", 100, 5)]
    with pytest.raises(InsufficientDataError):
        ldp_slope(few, reference=0.3)
    zeros = few + [make_estimate(0.1, "t", 100, 0)]  # still only 2 usable
    with pytest.raises(InsufficientDataError):
        ldp_slope(zeros, reference=0.3)
    dup = few + [make_estimate(0.4, "t", 100, 11)]  # only 2 distinct eps
    with pytest.raises(InsufficientDataError):
        ldp_slope(dup, reference=0.3)


def test_save_estimates_format(tmp_path):
    ests = [make_estimate(0.2, "t", 100, 10), make_estimate(0.1, "t", 100, 0)]
    f = tmp_path / "est.csv"
    save_estimates(ests, f)
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "eps,n,hits,p_hat,lo95,hi95,log_scaled"
    assert len(lines) == 3
    assert lines[2].endswith(",")  # blank log_scaled for the zero-hit row


def test_event_bounds_refuse_nan():
    nan = float("nan")
    with pytest.raises(InputError):
        Event.norm_ge(nan)
    with pytest.raises(InputError):
        Event.coord_ge(0, nan)
    for lo, hi in (([nan], [1.0]), ([0.0], [nan])):
        with pytest.raises(InputError):
            Event.box(lo, hi)


def test_sampler_settings_are_checked_before_sampling(ou, monkeypatch):
    def rows(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(ldpverify, "_pullback_rows", rows)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="tol"):
            sample_stationary(ou, 0.1, 4, seed=0, dt=0.01, tol=tol)
    with pytest.raises(InputError):
        sample_stationary(ou, float("nan"), 4, seed=0, dt=0.01)
    for eps_list in ([0.3, 0.0], [0.3, float("nan")]):
        with pytest.raises(InputError, match="eps"):
            estimate_event(ou, Event.norm_ge(0.5), eps_list=eps_list, n_samples=10, dt=0.01)


def test_sampler_refuses_a_nan_gap(ou, monkeypatch):
    # a shorter-horizon row that turns non-finite leaves a NaN gap, which
    # must fail the tolerance check and name its seed
    rows = ldpverify._pullback_rows

    def broken(model, eps, seeds, steps_list, dt):
        states = rows(model, eps, seeds, steps_list, dt)
        states[1, 1] = np.nan
        return states

    monkeypatch.setattr(ldpverify, "_pullback_rows", broken)
    with pytest.raises(NonConvergenceError) as exc:
        sample_stationary(ou, 0.1, 3, seed=4, dt=0.01)
    assert exc.value.seed == int(ldpverify.derive_seeds_from(4, 0, 3)[1])
    assert "nan" in str(exc.value)
