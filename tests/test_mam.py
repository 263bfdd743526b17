import json

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from ldpkit import (
    ConfigurationError,
    InputError,
    OptimizationStalledError,
    Path,
    TimeGrid,
    action,
    make_model,
    minimize_action,
    quasipotential,
    write_json,
)
from ldpkit.action import control_jacobian, value_and_gradient
from ldpkit.mam import _gn_step, default_t_schedule, solve_horizon
from ldpkit.models import drift


def ou_finite_horizon_cost(a, x, T):
    # cheapest cost to reach x at time 0 from rest at -T for dx = -a x dt + v dt
    return a * x**2 / (1.0 - np.exp(-2.0 * a * T))


def test_ou_matches_closed_form(ou):
    for T, steps in ((2.0, 100), (4.0, 200)):
        path, value = minimize_action(ou, [1.0], T, steps)
        assert value == pytest.approx(ou_finite_horizon_cost(1.0, 1.0, T), rel=1e-3)
        assert path.states[0, 0] == 0.0
        assert path.states[-1, 0] == 1.0


def test_ou_minimizer_is_exponential(ou):
    # the optimal finite-horizon path is sinh-shaped; at T = 8 it is an
    # exponential e^t to within the continuation tolerance
    path, _ = minimize_action(ou, [1.0], 8.0, 400)
    t = path.grid.times()
    assert np.max(np.abs(path.states[:, 0] - np.exp(t))) < 5e-3


def test_zero_target_costs_nothing(ou):
    _, value = minimize_action(ou, [0.0], 2.0, 50)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_init_strategies_agree(ou):
    _, v_lin = minimize_action(ou, [1.0], 4.0, 200, init="linear")
    _, v_rev = minimize_action(ou, [1.0], 4.0, 200, init="reversed-flow")
    assert v_lin == pytest.approx(v_rev, rel=1e-6)
    warm = Path(TimeGrid(-4.0, 0.0, 200),
                np.linspace(0.0, 1.0, 201)[:, None] ** 2)
    _, v_warm = minimize_action(ou, [1.0], 4.0, 200, init=warm)
    assert v_lin == pytest.approx(v_warm, rel=1e-6)


def test_symmetric_drift_minimizer_reverses_the_flow(lin_a1):
    # for the symmetric contraction the cheapest escape climbs straight
    # against the drift: du/dt = +lam u along the minimizer
    path, _ = minimize_action(lin_a1, [1.0, 0.0], 20.0, 500)
    u = path.states
    dt = path.grid.dt
    mids = 0.5 * (u[:-1] + u[1:])
    vel = np.diff(u, axis=0) / dt
    mask = np.linalg.norm(mids, axis=1) > 0.05  # skip the flat tail at rest
    rel = np.linalg.norm(vel[mask] - 0.3 * mids[mask], axis=1) / (
        0.3 * np.linalg.norm(mids[mask], axis=1)
    )
    assert np.max(rel) < 1e-2


def test_input_validation(ou, periodic, lin_a2):
    with pytest.raises(ConfigurationError):
        minimize_action(periodic, [1.0], 2.0, 50)
    with pytest.raises(InputError):
        minimize_action(ou, [1.0, 2.0], 2.0, 50)
    with pytest.raises(InputError):
        minimize_action(ou, [np.nan], 2.0, 50)
    with pytest.raises(InputError):
        minimize_action(ou, [1.0], -2.0, 50)
    with pytest.raises(InputError):
        minimize_action(ou, [1.0], 2.0, 1)
    with pytest.raises(InputError):
        minimize_action(ou, [1.0], 2.0, 50, init="bogus")
    # a step count is a whole number, never truncated or overflowed
    for steps in (30.7, 30.0, float("inf"), True):
        with pytest.raises(InputError) as exc:
            minimize_action(ou, [1.0], 2.0, steps)
        assert exc.value.exit_code == 2
    _, value = minimize_action(ou, [1.0], 2.0, np.int64(30))
    assert value == minimize_action(ou, [1.0], 2.0, 30)[1]
    with pytest.raises(InputError):
        minimize_action(
            ou, [1.0], 2.0, 50,
            init=Path(TimeGrid(-2.0, 0.0, 10), np.zeros((11, 2))),
        )


def test_stalled_optimizer_carries_best_iterate(ou, monkeypatch):
    # every trial scores the same as the start, so no damped step decreases
    # the value and the damping runs past its ceiling
    import ldpkit.mam

    real = ldpkit.mam.value_and_gradient
    monkeypatch.setattr(
        "ldpkit.mam.value_and_gradient",
        lambda model, path: (123.0, real(model, path)[1]),
    )
    with pytest.raises(OptimizationStalledError) as exc:
        minimize_action(ou, [1.0], 2.0, 50)
    assert exc.value.value == 123.0
    assert isinstance(exc.value.path, Path)
    # the best iterate is the untouched linear start
    assert np.array_equal(exc.value.path.states[:, 0], np.linspace(0.0, 1.0, 51))


def test_models_not_resting_at_zero_are_rejected(hopf):
    # paths start at 0, where hopf-radial's diffusion factor vanishes
    with pytest.raises(ConfigurationError):
        minimize_action(hopf, [1.2], 2.0, 50)
    with pytest.raises(ConfigurationError):
        quasipotential(hopf, [1.2])


def test_gauss_newton_solves_quadratic_problems_in_few_steps(ou, lin_a2):
    # v is linear in the path for linear drift, so Gauss-Newton is Newton
    for model, target in ((ou, [1.0]), (lin_a2, [0.6, -0.8])):
        res = quasipotential(model, target)
        assert res.converged
        assert max(res.iterations) <= 3
        assert res.defect == 0.0


def test_additive_burgers_cost_tends_to_linearized_oracle():
    # linearized in the first sine mode, reaching a*e_1 costs
    # lam1 a^2 / (1 - exp(-2 lam1 T)) with lam1 the discrete Dirichlet
    # eigenvalue and c_1 = 1; the nonlinear correction shrinks like a^2
    model = make_model("burgers1d", {"diffusion": "additive"})
    lam1 = model.constants.c1
    T = 6.0 / lam1
    gaps = []
    for a in (0.2, 0.1, 0.05):
        path, value = minimize_action(model, a * model.mode_matrix[:, 0], T, 30)
        gaps.append(abs(value / (lam1 * a**2 / (1.0 - np.exp(-2.0 * lam1 * T))) - 1.0))
        assert action(model, path).defect < 1e-3
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-4


def test_reversed_flow_start_runs_under_the_stability_ceiling(burgers):
    # the MAM step 0.02 is far above burgers1d's h^2/2 ceiling, so the
    # reversed flow is integrated in Heun substeps
    target = 0.1 * burgers.mode_matrix[:, 0]
    _, value, _, met_gtol = solve_horizon(burgers, target, 0.6, 30, "reversed-flow")
    _, ref, _, ref_met_gtol = solve_horizon(burgers, target, 0.6, 30, "linear")
    assert met_gtol and ref_met_gtol
    assert value == pytest.approx(ref, rel=1e-6)


def test_default_schedule_scales_with_relaxation(ou, hopf):
    assert default_t_schedule(ou) == pytest.approx([4.0, 6.0, 8.0])
    assert default_t_schedule(hopf) == pytest.approx([4 / 3, 2.0, 8 / 3])


def test_quasipotential_continuation(ou):
    res = quasipotential(ou, [1.0], T_schedule=[2.0, 4.0, 6.0, 8.0], tol=1e-3)
    assert res.converged
    assert res.converged_value == pytest.approx(1.0, rel=5e-3)
    # values decrease with the horizon
    assert all(b <= a + 1e-8 for a, b in zip(res.values, res.values[1:]))
    # early stop: the 8.0 horizon is never reached once 4 -> 6 is inside tol
    assert len(res.horizons) < 4
    assert res.warning is None
    assert res.path.grid.t_start == -res.horizons[-1]


def test_quasipotential_schedule_validation(ou):
    with pytest.raises(InputError):
        quasipotential(ou, [1.0], T_schedule=[])
    with pytest.raises(InputError):
        quasipotential(ou, [1.0], T_schedule=[2.0, 2.0])
    with pytest.raises(InputError):
        quasipotential(ou, [1.0], steps_per_unit=-1.0)
    with pytest.raises(InputError):
        quasipotential(ou, [1.0], tol=0.0)


def test_capped_continuation_is_not_converged(ou, monkeypatch):
    # one damped step from the linear start leaves the gradient above
    # gtol: values agree within tol, but no horizon was solved
    monkeypatch.setattr("ldpkit.mam._MAX_ITER", 1)
    res = quasipotential(ou, [1.0], T_schedule=[2.0, 4.0, 6.0], tol=10.0)
    assert not res.converged
    assert res.horizons == [2.0, 4.0, 6.0]
    assert res.iterations == [1, 1, 1]
    assert "horizon(s) 2, 4, 6" in res.warning


def test_unreachable_path_is_not_converged():
    # beyond the K = 8 noise modes the residual is free, so the descent
    # drives the value of 0.3 e_1 to zero along paths no control produces
    model = make_model("burgers1d", {"grid": 19, "K": 8})
    target = np.zeros(19)
    target[0] = 0.3
    res = quasipotential(model, target)
    assert res.defect == action(model, res.path).defect > 1.0
    assert not res.converged
    assert "defect" in res.warning


def test_qp_result_serialization(tmp_path, ou):
    res = quasipotential(ou, [0.5], T_schedule=[2.0, 4.0], tol=1e-2)
    f = tmp_path / "qp.json"
    write_json(res.to_dict(), f)
    data = json.loads(f.read_text())
    assert data["target"] == [0.5]
    assert data["values"] == pytest.approx(res.values)
    assert "path" not in data
    assert data["converged"] == res.converged
    assert data["defect"] == res.defect


def test_quasipotential_refuses_non_finite_settings(ou):
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"tol": nan}, {"steps_per_unit": nan}, {"steps_per_unit": inf},
                   {"T_schedule": [2.0, inf]}, {"T_schedule": [nan]}, {"T_schedule": [-1.0]}):
        with pytest.raises(InputError):
            quasipotential(ou, [1.0], **kwargs)
    with pytest.raises(InputError):
        solve_horizon(ou, [1.0], nan, 50)


def _dense_control_jacobian(A, B):
    """J over the interior states: control row block i holds A_i at u_i and B_i at u_{i+1}."""
    steps, K, dim = A.shape
    J = np.zeros((steps * K, (steps - 1) * dim))
    for i in range(steps):
        if i > 0:
            J[i * K:(i + 1) * K, (i - 1) * dim:i * dim] = A[i]
        if i < steps - 1:
            J[i * K:(i + 1) * K, i * dim:(i + 1) * dim] = B[i]
    return J


@pytest.mark.parametrize("name, params", [
    ("ou", {}),
    ("linear2d-a2", {}),
    ("burgers1d", {"grid": 19, "K": 8}),
    ("burgers1d", {"grid": 19, "K": 8, "diffusion": "additive"}),
])
def test_gauss_newton_step_solves_the_dense_normal_equations(name, params, monkeypatch):
    # the step solved over the controls equals -(dt J^T J + shift I)^{-1} g
    # with g the exact action gradient, on a path off the minimizer
    import ldpkit.mam

    model = make_model(name, params)
    rng = np.random.default_rng(4)
    grid = TimeGrid(-0.6, 0.0, 30)
    states = np.linspace(0.0, 1.0, 31)[:, None] * rng.uniform(-0.3, 0.3, model.dim)
    states[1:-1] += 0.05 * rng.normal(size=(29, model.dim))
    path = Path(grid, states)
    g = value_and_gradient(model, path)[1][1:-1].ravel()
    v, A, B = control_jacobian(model, path)
    J = _dense_control_jacobian(A, B)
    gn = grid.dt * J.T @ J
    scale = np.max(np.diag(gn))
    bands = []
    real = ldpkit.mam.solveh_banded
    monkeypatch.setattr("ldpkit.mam.solveh_banded",
                        lambda band, *a, **k: bands.append(band.shape) or real(band, *a, **k))
    for rel in (1e-6, 1e-2, 1.0):
        shift = rel * scale
        step = _gn_step(v, A, B, grid.dt, shift)
        dense = np.linalg.solve(gn + shift * np.eye(len(g)), -g)
        assert step.shape == (grid.steps - 1, model.dim)
        assert np.linalg.norm(step.ravel() - dense) <= 1e-8 * np.linalg.norm(dense)
    # one band of 2K rows over steps * K controls, not 2 dim rows over the states
    K = model.modes
    assert bands == [(2 * K, grid.steps * K)] * 3


def _gaussian_rate_matrix(model):
    """C^{-1} for the invariant covariance C of the linearization: A C + C A^T + QQ^T = 0."""
    A = drift(model, np.eye(model.dim), 0.0).T
    Q = model.mode_matrix * model.mode_weights
    return np.linalg.inv(solve_continuous_lyapunov(A, -Q @ Q.T))


@pytest.mark.parametrize("name", ["ou", "linear2d-a1", "linear2d-a2", "non-normal 3x3"])
def test_quasipotential_equals_the_gaussian_rate(name, non_normal):
    # for linear drift the invariant law is N(0, eps C), so the transition
    # cost from rest is V(x) = x^T C^{-1} x / 2
    model = non_normal if name == "non-normal 3x3" else make_model(name)
    P = _gaussian_rate_matrix(model)
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = rng.uniform(-1.5, 1.5, model.dim)
        res = quasipotential(model, x)
        assert res.converged
        assert res.converged_value == pytest.approx(0.5 * x @ P @ x, rel=1e-4)


@pytest.mark.parametrize("weights, a, d0, targets, steps_per_unit", [
    (None, 1.0, 1.0, [[0.3], [0.7], [1.0], [-1.2]], 50.0),
    # faster relaxation: at 50 steps per unit -0.9 is 3.0e-4 off, at 100 7.3e-5
    (None, 2.0, 1.5, [[0.5], [-0.9]], 100.0),
    ([1.0, 2.0], 1.0, 1.0, "radius 0.8", 50.0),
])
def test_quasipotential_equals_the_multiplicative_gradient_potential(weights, a, d0, targets,
                                                                     steps_per_unit,
                                                                     gradient_flow):
    # the paper's equality under multiplicative noise: with f = -b(x)^2 grad U and a
    # scalar factor b on identity modes, the action splits as
    # |x' + b^2 grad U|^2 / 2b^2 = |x' - b^2 grad U|^2 / 2b^2 + 2 grad U . x',
    # so the cost from rest is V = 2U (Freidlin-Wentzell, ch. 4)
    model = gradient_flow(weights, a, d0)
    if weights is None:
        def V(x):
            return a * ((1.0 + x @ x) ** 3 - 1.0) / (3.0 * d0**2)
    else:
        def V(x):
            return a * np.asarray(weights) @ (x * x)
        rng = np.random.default_rng(3)
        targets = [0.8 * v / np.linalg.norm(v) for v in rng.normal(size=(3, 2))]
    for x in np.asarray(targets, dtype=np.float64):
        res = quasipotential(model, x, steps_per_unit=steps_per_unit)
        assert res.converged, x
        assert res.converged_value == pytest.approx(V(x), rel=2e-4), x
