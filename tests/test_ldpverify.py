import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from ldpkit.integrate import CHECK_EVERY
from ldpkit.ldpverify import _Z95, line_fit


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


def test_sampling_frozen_values(ou, lin_a1, lin_a2):
    # frozen-seed samples are part of the reproducibility contract: a faster
    # engine must reproduce these bytes exactly
    def sha256(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()

    assert sha256(sample_stationary(ou, 0.1, 64, seed=1, dt=0.01)) == (
        "702562bdcfe8ca57951e18d30f8f6e6bc3c011230bc04392e7ffad9fd59633cc")
    assert sha256(sample_stationary(lin_a1, 0.2, 64, seed=5, dt=0.005)) == (
        "03afdb8ee19056a69b7fecfc377f7127f54221e2265e7011231cccd6d4c00b5e")
    # the rotation and the non-identity mode matrix: fixed-order products
    assert sha256(sample_stationary(lin_a2, 0.2, 64, seed=5, dt=0.005)) == (
        "8ac47f6aee83db26b92d185a50de8ca015475f2c6d9597d1b954ba918cf3aa3a")
    small = make_model("burgers1d", {"grid": 19, "K": 8})
    assert sha256(sample_stationary(small, 0.05, 8, seed=3)) == (
        "c37421b6955eb865e31706a67bb6153aa2d48babeb879f79ae5e1e5c1b386c4d")


def test_sampling_chunking_invariance(ou, all_models, monkeypatch):
    # chunk boundaries must not change the stream
    a = sample_stationary(ou, 0.1, 50, seed=3, dt=0.01)
    with monkeypatch.context() as m:
        m.setattr(ldpverify, "_DRIVE_WORDS", 2_000)  # chunks of 7 samples, the last of 1
        b = sample_stationary(ou, 0.1, 50, seed=3, dt=0.01)
    assert np.array_equal(a, b)
    # every model, over six check intervals with a horizon joining inside the
    # third: 5 samples in chunks of 2, 2 and 1 against one chunk of 5
    for model in all_models:
        dt = model.max_stable_dt or 10 * model.default_dt
        kw = dict(dt=dt, horizons=[600 * dt, 1300 * dt], tol=1.0)
        one = sample_stationary(model, model.default_eps, 5, seed=8, **kw)
        pair = 2 * CHECK_EVERY * max(model.modes, model.dim)  # two samples per chunk
        with monkeypatch.context() as m:
            m.setattr(ldpverify, "_DRIVE_WORDS", pair)
            chunked = sample_stationary(model, model.default_eps, 5, seed=8, **kw)
        assert np.array_equal(one, chunked), model.name


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


def test_negative_horizon_is_a_config_mistake(ou):
    # refused before sampling, not reported as a pullback gap
    with pytest.raises(InputError, match="positive"):
        sample_stationary(ou, 0.1, 10, 0, horizons=[-1.0, 20.0])


def test_sampling_reports_divergence(ou):
    # at dt = 2.5 an EM step maps x to -1.5 x + noise; horizons of 40 and 80
    # steps are checked only after the last step (j = -1), 79 steps after
    # the longest horizon's first
    with pytest.raises(DivergenceError) as exc:
        sample_stationary(ou, 0.1, 4, seed=0, dt=2.5, horizons=[100, 200])
    assert exc.value.step == 79
    assert exc.value.time == -2.5


def test_sampling_divergence_after_many_check_intervals(ou):
    # at dt = 2.02 an EM step maps x to -1.02 x + noise; the longest horizon
    # (3000 steps) is checked after each step j with j % CHECK_EVERY == 0 and
    # is first seen past the blow-up norm after step -2304, 696 steps in
    with pytest.raises(DivergenceError) as exc:
        sample_stationary(ou, 0.1, 3, seed=0, dt=2.02,
                          horizons=[1200 * 2.02, 3000 * 2.02])
    assert exc.value.step == 696
    assert exc.value.time == -4654.08


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
