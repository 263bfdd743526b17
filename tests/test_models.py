import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ldpkit import (
    InputError,
    TimeGrid,
    ToolkitError,
    action,
    check_hypothesis,
    em_step_sde,
    h_inner,
    h_norm_sq,
    integrate_skeleton,
    make_model,
    minimize_action,
    model_names,
    pullback_stationary,
    sample_noise,
    sample_stationary,
)
from ldpkit.models import drift


def test_catalogue_names():
    assert model_names() == [
        "ou",
        "periodic1d",
        "linear2d-a1",
        "linear2d-a2",
        "hopf-radial",
        "burgers1d",
    ]


def test_unknown_name_and_params_rejected():
    with pytest.raises(InputError):
        make_model("nope")
    with pytest.raises(InputError):
        make_model("ou", {"b": 2.0})
    with pytest.raises(InputError):
        make_model("periodic1d", {"a": 1.0})  # takes no parameters
    with pytest.raises(InputError):
        make_model("ou", {"a": -1.0})


def test_parameter_overrides():
    fast = make_model("ou", {"a": 2.5})
    assert fast.relax_rate == 2.5
    assert drift(fast, np.array([1.0]), 0.0) == pytest.approx(-2.5)
    tilted = make_model("linear2d-a2", {"lambda": 0.5, "beta": 1.0})
    assert np.allclose(
        drift(tilted, np.array([1.0, 0.0]), 0.0), [-0.5, 1.0]
    )
    small = make_model("burgers1d", {"grid": 8, "K": 4})
    assert small.dim == 8
    assert small.modes == 4


def test_hypothesis_margins_all_models(all_models):
    for model in all_models:
        report = check_hypothesis(model)
        assert report.passed, f"{model.name}: {report.to_dict()}"
        assert report.pair_margin <= 1e-8
        assert report.lipschitz_margin <= 1e-8
        assert report.bound_margin <= 1e-8
        if model.zero_equilibrium:
            assert report.self_margin is not None
            assert report.self_margin <= 1e-8
        else:
            assert report.self_margin is None


def test_drift_broadcasts(all_models):
    rng = np.random.default_rng(0)
    for model in all_models:
        batch = np.stack([model.sample_state(rng) for _ in range(5)])
        out = drift(model, batch, 0.25)
        assert out.shape == (5, model.dim)
        single = drift(model, batch[2], 0.25)
        assert np.allclose(single, out[2])


_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-300, 1e300),
                   st.floats(-1e300, -1e-300))
_ROWS = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40).map(np.array)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=_ROWS, lam=st.floats(1e-3, 1e3))
def test_planar_linear_parts_equal_their_matrix_products(u, lam):
    # a1 is written -lam*u: u0*(-lam) + u1*0 is the same number (== compares
    # signed zeros equal, and x + dt*(+-0) is the same x)
    a1 = make_model("linear2d-a1", {"lambda": lam})
    assert np.array_equal(drift(a1, u, 0.0), u @ (-lam * np.eye(2)).T)


# magnitudes whose products with lambda and beta stay finite and normal
_MODERATE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-100, 1e100),
                      st.floats(-1e100, -1e-100))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=st.lists(st.tuples(_MODERATE, _MODERATE), min_size=1, max_size=40).map(np.array),
       lam=st.floats(1e-3, 1e3), beta=st.floats(-1e3, 1e3))
@example(u=np.random.default_rng(0).uniform(-2.0, 2.0, size=(4096, 2)), lam=0.3, beta=2.0)
def test_a2_linear_part_is_the_rotation(u, lam, beta):
    # a2 is (-lam u0 - beta u1, -lam u1 + beta u0) in this order, values and
    # zero signs, for a block and for each of its rows alone
    a2 = make_model("linear2d-a2", {"lambda": lam, "beta": beta})
    expected = np.stack([-lam * u[:, 0] - beta * u[:, 1],
                         -lam * u[:, 1] + beta * u[:, 0]], axis=-1)
    block = drift(a2, u, 0.0)
    assert np.array_equal(block, expected)
    assert np.array_equal(np.signbit(block), np.signbit(expected))
    for i in (0, len(u) // 2, len(u) - 1):
        row = drift(a2, u[i], 0.0)
        assert np.array_equal(row, block[i])
        assert np.array_equal(np.signbit(row), np.signbit(block[i]))


def test_drift_shape_validation(ou):
    with pytest.raises(InputError):
        drift(ou, np.zeros(2), 0.0)


def test_trace_q(ou, burgers):
    assert ou.trace_q() == pytest.approx(1.0)
    ks = np.arange(1, 17)
    assert burgers.trace_q() == pytest.approx(np.sum(ks**-4.0))


def test_mode_matrices_h_orthonormal(all_models):
    for model in all_models:
        e = model.mode_matrix
        gram = model.mass * e.T @ e
        assert np.allclose(gram, np.eye(model.modes), atol=1e-12), model.name


def test_vnorm_dominates_hnorm(all_models):
    rng = np.random.default_rng(1)
    for model in all_models:
        for _ in range(20):
            u = model.sample_state(rng)
            assert (
                model.vnorm_sq(u)
                >= model.constants.c1 * h_norm_sq(model, u) - 1e-9
            ), model.name


def test_periodic_forcing_period_one(periodic):
    t = np.linspace(0.0, 1.0, 13)
    assert np.allclose(periodic.forcing(t), periodic.forcing(t + 1.0))
    assert not periodic.autonomous
    assert np.allclose(periodic.forcing(0.25), [0.3])


def test_autonomous_models_have_zero_forcing(all_models):
    rng = np.random.default_rng(4)
    for model in all_models:
        if model.autonomous:
            assert model.forcing is None
            u = np.stack([model.sample_state(rng) for _ in range(3)])
            assert np.array_equal(drift(model, u, 1.7), drift(model, u, -0.3)), model.name


def test_unit_diffusion_flag_matches_the_factor(all_models):
    rng = np.random.default_rng(3)
    models = all_models + [make_model("burgers1d", {"diffusion": "additive"})]
    for model in models:
        b = model.diffusion_factor(np.stack([model.sample_state(rng) for _ in range(20)]))
        assert model.unit_diffusion == bool(np.all(b == 1.0)), model.name
    # ou, periodic1d, linear2d-a1, linear2d-a2, hopf-radial, burgers1d, additive burgers1d
    assert [m.unit_diffusion for m in models] == [True] * 4 + [False, False, True]


def test_hopf_diffusion_is_linear(hopf):
    r = np.array([1.3])
    assert hopf.diffusion_factor(r) == pytest.approx(1.3)
    assert np.allclose(hopf.grad_diffusion_factor(r), [1.0])
    assert not hopf.zero_equilibrium
    # drift vanishes at the attracting radius sqrt(3/2)
    assert drift(hopf, np.array([np.sqrt(1.5)]), 0.0) == pytest.approx(0.0)


def test_burgers_nonlinearity_is_energy_neutral(burgers):
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = burgers.sample_state(rng)
        f = burgers.nonlinear(u)
        assert abs(h_inner(burgers, f, u)) < 1e-12


def test_burgers_laplacian_matches_vnorm(burgers):
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = burgers.sample_state(rng)
        assert h_inner(burgers, burgers.linear(u), u) == pytest.approx(
            -burgers.vnorm_sq(u), rel=1e-12
        )


def test_burgers_diffusion_bounds(burgers):
    rng = np.random.default_rng(5)
    d0 = burgers.constants.d0
    for _ in range(20):
        u = burgers.sample_state(rng)
        b = burgers.diffusion_factor(u)
        assert 0.0 < b <= d0
        # analytic gradient vs finite differences
        g = burgers.grad_diffusion_factor(u)
        eps = 1e-7
        for j in (0, 17, 63):
            up = u.copy()
            up[j] += eps
            dn = u.copy()
            dn[j] -= eps
            fd = (burgers.diffusion_factor(up) - burgers.diffusion_factor(dn)) / (
                2 * eps
            )
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_drift_jacobian_transpose(all_models):
    # <J y, z> = <y, J^T z> for random directions, FD on the left
    rng = np.random.default_rng(6)
    for model in all_models:
        u = model.sample_state(rng)
        y = rng.standard_normal(model.dim)
        z = rng.standard_normal(model.dim)
        eps = 1e-7
        jy = (drift(model, u + eps * y, 0.3) - drift(model, u - eps * y, 0.3)) / (
            2 * eps
        )
        lhs = float(np.dot(jy, z))
        rhs = float(np.dot(y, model.drift_jacT(u, 0.3, z)))
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-7), model.name


def test_check_hypothesis_is_deterministic(ou):
    a = check_hypothesis(ou, n_samples=50, seed=3)
    b = check_hypothesis(ou, n_samples=50, seed=3)
    assert a == b


# the six catalogue models plus additive burgers1d
CATALOGUE = [("ou", {}), ("periodic1d", {}), ("linear2d-a1", {}), ("linear2d-a2", {}),
             ("hopf-radial", {}), ("burgers1d", {}), ("burgers1d", {"diffusion": "additive"})]


@pytest.mark.parametrize("name,params", CATALOGUE,
                         ids=["-".join([n, *p.values()]) for n, p in CATALOGUE])
def test_every_entry_point_runs_or_refuses_the_model(name, params):
    model = make_model(name, params)
    dt = model.default_dt
    rng = np.random.default_rng(2)
    x0 = model.sample_state(rng)
    grid = TimeGrid(0.0, 20 * dt, 20)
    view = TimeGrid(-10 * dt, 0.0, 10)
    horizons = [20 * dt, 40 * dt]
    eps = model.default_eps
    calls = {
        "em_step_sde": lambda: em_step_sde(model, x0, grid,
                                           sample_noise(grid, model.modes, 1), eps),
        "integrate_skeleton": lambda: integrate_skeleton(model, x0, grid),
        "pullback_stationary": lambda: pullback_stationary(model, eps, 1, view,
                                                           horizons=horizons, tol=1.0),
        "sample_stationary": lambda: sample_stationary(model, eps, 3, 1,
                                                       horizons=horizons, tol=1.0),
        "action": lambda: action(model, integrate_skeleton(model, x0, grid)),
        "minimize_action": lambda: minimize_action(model, 0.3 * model.mode_matrix[:, 0],
                                                   20 * dt, 20),
    }
    refused = set()
    for entry, call in calls.items():
        try:
            call()
        except ToolkitError as err:
            # a refusal is a validation error (exit 2), never a numerical one
            assert err.exit_code == 2, (entry, err)
            refused.add(entry)
    # transition costs from rest need an autonomous model with rest state 0
    assert refused == ({"minimize_action"} if name in ("periodic1d", "hopf-radial") else set())


@pytest.mark.parametrize("name,key", [("ou", "a"), ("linear2d-a1", "lambda"),
                                      ("linear2d-a2", "beta"), ("hopf-radial", "c"),
                                      ("burgers1d", "d0"), ("burgers1d", "grid")])
def test_non_finite_parameters_are_refused(name, key):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match=f"parameter '{key}'"):
            make_model(name, {key: value})


def test_boolean_parameters_are_refused():
    # a YAML true would otherwise read as 1: ou with a = 1, burgers1d with one mode
    for name, key in [("ou", "a"), ("linear2d-a2", "beta"), ("burgers1d", "K"),
                      ("burgers1d", "grid")]:
        for value in (True, False, np.True_):
            with pytest.raises(InputError, match=f"parameter '{key}'.*boolean"):
                make_model(name, {key: value})


def _old_lap(u, h):
    out = -2.0 * np.asarray(u, dtype=np.float64)
    out[..., :-1] += u[..., 1:]
    out[..., 1:] += u[..., :-1]
    return out / (h * h)


def _old_dx(u, h):
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    out[..., :-1] += u[..., 1:]
    out[..., 1:] -= u[..., :-1]
    return out / (2.0 * h)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("diffusion", ["multiplicative", "additive"])
def test_burgers_stencils_equal_the_zero_filled_formulas(diffusion):
    # the in-place stencils against the zeros-then-add forms they replace: equal
    # values and equal zero signs on states full of 0.0 and -0.0
    from ldpkit.models import _dirichlet_dx, _dirichlet_lap

    model = make_model("burgers1d", {"grid": 12, "K": 5, "diffusion": diffusion})
    h = model.mass
    rng = np.random.default_rng(11)
    for k in range(400):
        shape = (model.dim,) if k % 2 else (3, model.dim)
        u = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape) * rng.uniform(0.0, 1.0, size=shape)
        u[rng.random(size=shape) < 0.3] = -0.0
        y = rng.choice([0.0, -0.0, 0.5], size=shape)
        dx, lap = _old_dx(u, h), _old_lap(u, h)
        nonlinear = (u * dx + _old_dx(u * u, h)) / 3.0
        jacT = _old_lap(y, h) + (dx * y - _old_dx(u * y, h) - 2.0 * u * _old_dx(y, h)) / 3.0
        assert _same_bits(_dirichlet_dx(u, h), dx)
        assert _same_bits(_dirichlet_lap(u, h), lap)
        assert _same_bits(model.linear(u), lap)
        assert _same_bits(model.nonlinear(u), nonlinear)
        assert _same_bits(drift(model, u, 0.0), lap + nonlinear)
        assert _same_bits(model.drift_jacT(u, 0.0, y), jacT)
