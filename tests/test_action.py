import hashlib

import numpy as np
import pytest

from ldpkit import (
    ActionReport,
    Control,
    InputError,
    NonInvertibleDiffusionError,
    Path,
    TimeGrid,
    action,
    action_gradient,
    from_dt,
    integrate_skeleton,
    load_control,
    save_control,
    value_and_gradient,
    write_json,
)


def smooth_path(grid, dim, seed, scale=1.0, offset=0.0):
    """Low-frequency random path for gradient checks."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, np.pi, grid.steps + 1)
    states = np.zeros((grid.steps + 1, dim))
    for j in range(1, 4):
        amp = rng.standard_normal(dim) * scale / j
        states += np.sin(j * t)[:, None] * amp
    return Path(grid, states + offset)


def test_zero_path_costs_nothing(ou):
    g = from_dt(0.0, 1.0, 0.01)
    rep = action(ou, Path(g, np.zeros((101, 1))))
    assert rep.value == 0.0
    assert rep.defect == pytest.approx(0.0, abs=1e-14)
    assert np.all(rep.per_step == 0.0)


def test_cost_scales_quadratically(ou):
    # for a linear drift the residual is linear in the path amplitude
    g = from_dt(0.0, 1.0, 0.01)
    base = smooth_path(g, 1, seed=1)
    v1 = action(ou, base).value
    v2 = action(ou, Path(g, 3.0 * base.states)).value
    assert v2 == pytest.approx(9.0 * v1, rel=1e-12)


def test_roundtrip_through_skeleton(ou):
    # recovered control drives the skeleton back through the path, and
    # the defect of a skeleton trajectory vanishes as O(dt^2)
    defects = []
    for dt in (0.02, 0.01):
        g = from_dt(0.0, 1.0, dt)
        v = np.sin(2 * np.pi * g.midpoints())[:, None]
        forward = integrate_skeleton(ou, np.array([0.5]), g, control=v)
        rep = action(ou, forward)
        back = integrate_skeleton(ou, np.array([0.5]), g, control=rep.control)
        defects.append(np.max(np.abs(back.states - forward.states)))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.35)
    assert defects[1] < 1e-4


def test_exact_control_recovery_on_linear_model(ou):
    # u(t) = e^t solves the controlled equation with v = 2 e^t; midpoint
    # inversion recovers cosh-corrected coefficients exactly
    dt = 1e-3
    g = from_dt(0.0, 1.0, dt)
    u = np.exp(g.times())[:, None]
    ctrl = action(ou, Path(g, u)).control
    # discrete residual of the exponential: (e^dt - 1)/dt + cosh-average
    t_mid = g.midpoints()
    expected = np.exp(t_mid) * (
        (np.exp(dt / 2) - np.exp(-dt / 2)) / dt + np.cosh(dt / 2)
    )
    assert np.allclose(ctrl.coeffs[:, 0], expected, rtol=1e-12)
    assert np.max(np.abs(ctrl.coeffs[:, 0] - 2.0 * np.exp(t_mid))) < 1e-3


def test_defect_flags_unreachable_directions(burgers):
    # a path moving along mode 20 cannot be driven with 16 modes
    dt = burgers.default_dt
    g = from_dt(0.0, 200 * dt, dt)
    e20 = np.sqrt(2.0) * np.sin(np.pi * 20 * (np.arange(1, 65) / 65.0))
    ramp = np.linspace(0.0, 1.0, g.steps + 1)[:, None] * e20
    rep = action(burgers, Path(g, ramp))
    assert rep.defect > 1e-2
    # motion along mode 3 is fully spanned
    e3 = burgers.mode_matrix[:, 2]
    rep2 = action(burgers, Path(g, np.linspace(0.0, 1.0, g.steps + 1)[:, None] * e3))
    assert rep2.defect < 1e-10 * max(1.0, rep2.value)


def test_non_invertible_at_zero_radius(hopf):
    g = from_dt(0.0, 0.1, 0.01)
    flat = Path(g, np.zeros((11, 1)))
    with pytest.raises(NonInvertibleDiffusionError):
        action(hopf, flat)


def test_dimension_mismatch(lin_a2):
    g = from_dt(0.0, 0.1, 0.01)
    with pytest.raises(InputError):
        action(lin_a2, Path(g, np.zeros((11, 1))))


def test_row_block_paths_are_refused(lin_a2):
    # states (steps+1, rows, dim) would mix rows with modes in the inversion
    from ldpkit.action import control_jacobian

    block = Path(from_dt(0.0, 0.1, 0.01), np.ones((11, 2, 2)))
    for entry in (action, value_and_gradient, control_jacobian):
        with pytest.raises(InputError, match="one path of shape"):
            entry(lin_a2, block)


@pytest.mark.parametrize("name,params", [
    ("ou", {}),
    ("linear2d-a1", {}),
    ("linear2d-a2", {}),
    ("burgers1d", {}),
    ("burgers1d", {"diffusion": "additive"}),
    ("periodic1d", {}),
    ("hopf-radial", {}),
])
def test_control_jacobian_reproduces_the_gradient(name, params):
    # dt * sum_i J_i^T v_i over the per-step blocks is the action gradient
    from ldpkit import make_model
    from ldpkit.action import control_jacobian

    model = make_model(name, params)
    # the minimum-action step sizes; the action has no stability ceiling
    dt = 0.01
    g = from_dt(0.0, 0.2, dt)
    # around the centre of the state box, where hopf-radial's factor b(r) = r is nonzero
    offset = np.mean(model.state_box)
    for seed in (12, 13, 14):
        path = smooth_path(g, model.dim, seed=seed, scale=0.5, offset=offset)
        coeffs, d_left, d_right = control_jacobian(model, path)
        assert np.array_equal(coeffs, action(model, path).control.coeffs)
        grad = np.zeros_like(path.states)
        grad[:-1] += dt * np.einsum("ika,ik->ia", d_left, coeffs)
        grad[1:] += dt * np.einsum("ika,ik->ia", d_right, coeffs)
        exact = action_gradient(model, path, fixed_endpoints=(False, False))
        assert np.max(np.abs(grad - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("name,params,offset", [
    ("ou", {}, 0.0),
    ("periodic1d", {}, 0.0),
    ("linear2d-a1", {}, 0.0),
    ("linear2d-a2", {}, 0.0),
    ("hopf-radial", {}, 1.5),
    ("burgers1d", {"grid": 19, "K": 8}, 0.0),
    ("burgers1d", {"grid": 19, "K": 8, "diffusion": "additive"}, 0.0),
    ("gradient-flow", None, 0.0),
    ("gradient-flow", [1.0, 2.0], 0.2),
])
def test_control_jacobian_matches_finite_differences(gradient_flow, name, params, offset):
    # every entry of the per-step blocks against central differences of the recovered
    # controls: a perturbed state u_i moves v_{i-1} through dv/du_{i+1} and v_i through dv/du_i
    from ldpkit import make_model
    from ldpkit.action import control_jacobian

    model = (gradient_flow(params, 1.0, 1.0) if name == "gradient-flow"
             else make_model(name, params))
    g = from_dt(0.0, 0.1, 0.01)
    path = smooth_path(g, model.dim, seed=4, scale=0.5, offset=offset)
    coeffs, d_left, d_right = control_jacobian(model, path)
    exact = np.zeros((g.steps, model.modes, g.steps + 1, model.dim))
    for i in range(g.steps):
        exact[i, :, i] = d_left[i]
        exact[i, :, i + 1] = d_right[i]
    fd = np.empty_like(exact)
    for i in range(g.steps + 1):
        for j in range(model.dim):
            h = 1e-6 * (1.0 + abs(path.states[i, j]))
            up = path.states.copy()
            up[i, j] += h
            dn = path.states.copy()
            dn[i, j] -= h
            fd[:, :, i, j] = (action(model, Path(g, up)).control.coeffs
                              - action(model, Path(g, dn)).control.coeffs) / (2 * h)
    assert np.max(np.abs(fd - exact)) <= 1e-7 * np.max(np.abs(exact)), name


@pytest.mark.parametrize("name,offset", [
    ("ou", 0.0),
    ("linear2d-a2", 0.0),
    ("periodic1d", 0.0),
    ("hopf-radial", 1.5),
    ("burgers1d", 0.0),
])
def test_gradient_matches_finite_differences(name, offset):
    from ldpkit import make_model

    model = make_model(name)
    dt = 0.01 if model.max_stable_dt is None else model.default_dt
    g = from_dt(0.0, round(20 * dt, 12), dt)
    path = smooth_path(g, model.dim, seed=8, scale=0.3, offset=offset)
    val, grad = value_and_gradient(model, path, fixed_endpoints=(False, False))
    assert val == pytest.approx(action(model, path).value, rel=1e-13)
    rng = np.random.default_rng(9)
    for _ in range(5):
        i = rng.integers(0, g.steps + 1)
        j = rng.integers(0, model.dim)
        h = 1e-6 * (1.0 + abs(path.states[i, j]))
        up = path.states.copy()
        up[i, j] += h
        dn = path.states.copy()
        dn[i, j] -= h
        fd = (action(model, Path(g, up)).value - action(model, Path(g, dn)).value) / (
            2 * h
        )
        assert grad[i, j] == pytest.approx(fd, rel=2e-5, abs=1e-8), (name, i, j)


@pytest.mark.parametrize("weights, offset", [(None, 0.0), ([1.0, 2.0], 0.2)])
def test_gradient_matches_finite_differences_on_the_multiplicative_oracles(
        gradient_flow, weights, offset):
    # criterion 06's check on the oracle family b(x) = d0 / (1 + |x|^2), f = -b^2 grad U,
    # whose 1-D member has a linear drift and whose 2-D member carries b in the drift too:
    # every entry of the exact gradient against central differences, random smooth paths
    model = gradient_flow(weights, 1.0, 1.0)
    g = from_dt(0.0, 0.2, 0.01)
    worst = 0.0
    for seed in range(20):
        path = smooth_path(g, model.dim, seed=seed, scale=0.5, offset=offset)
        grad = action_gradient(model, path, fixed_endpoints=(False, False))
        fd = np.empty_like(grad)
        for i in range(g.steps + 1):
            for j in range(model.dim):
                h = 1e-6 * (1.0 + abs(path.states[i, j]))
                up = path.states.copy()
                up[i, j] += h
                dn = path.states.copy()
                dn[i, j] -= h
                fd[i, j] = (action(model, Path(g, up)).value
                            - action(model, Path(g, dn)).value) / (2 * h)
        worst = max(worst, np.max(np.abs(grad - fd)) / np.max(np.abs(fd)))
    assert worst < 1e-5


def test_gradient_endpoint_zeroing(ou):
    g = from_dt(0.0, 0.5, 0.01)
    path = smooth_path(g, 1, seed=2)
    free = action_gradient(ou, path, fixed_endpoints=(False, False))
    pinned = action_gradient(ou, path)
    assert np.all(pinned[0] == 0.0) and np.all(pinned[-1] == 0.0)
    assert np.array_equal(free[1:-1], pinned[1:-1])
    assert np.any(free[0] != 0.0)


def test_control_sq_norm():
    g = from_dt(0.0, 1.0, 0.1)
    assert Control(g, np.ones((10, 1))).sq_norm == pytest.approx(1.0)


def test_control_validation():
    g = from_dt(0.0, 1.0, 0.1)
    with pytest.raises(InputError):
        Control(g, np.ones((7, 1)))
    bad = np.ones((10, 1))
    bad[4, 0] = np.inf
    with pytest.raises(InputError):
        Control(g, bad)


def test_control_save_load_roundtrip(tmp_path):
    g = from_dt(-0.5, 0.5, 0.05)
    coeffs = np.random.default_rng(3).standard_normal((20, 3))
    f = tmp_path / "ctrl.csv"
    save_control(Control(g, coeffs), f)
    back = load_control(f)
    assert back.grid.steps == 20
    assert back.grid.t_start == pytest.approx(-0.5)
    assert back.grid.dt == pytest.approx(0.05)
    assert np.allclose(back.coeffs, coeffs, rtol=0, atol=0)
    # the exact bytes: a header line, then rows at %.17g, past a CHECK_EVERY chunk too
    long = from_dt(-1.5, 0.0, 0.005)
    assert long.steps > 256
    save_control(Control(long, np.random.default_rng(21).standard_normal((300, 3))), f)
    assert hashlib.sha256(f.read_bytes()).hexdigest() == (
        "047a8525b964b50e717111c88159d591f3d9f8548247fc1392427e7f9dc0aa03")
    assert np.array_equal(load_control(f).coeffs,
                          np.random.default_rng(21).standard_normal((300, 3)))
    save_control(Control(TimeGrid(0.0, 0.1, 1), np.array([[0.25, -1.5]])), f)
    assert f.read_bytes() == b"time,v1,v2\n0,0.25,-1.5\n"


def test_load_control_rejects_bad_files(tmp_path):
    single = tmp_path / "one.csv"
    single.write_text("time,v1\n0.0,1.0\n")
    with pytest.raises(InputError, match="control file"):
        load_control(single)
    jitter = tmp_path / "jitter.csv"
    jitter.write_text("time,v1\n0.0,1.0\n0.1,1.0\n0.25,1.0\n")
    with pytest.raises(InputError, match="control file"):
        load_control(jitter)


def test_report_serialization(tmp_path, ou):
    g = from_dt(0.0, 0.2, 0.01)
    rep = action(ou, smooth_path(g, 1, seed=5))
    f = tmp_path / "report.json"
    write_json(rep.to_dict(), f)
    import json

    data = json.loads(f.read_text())
    assert data["value"] == pytest.approx(rep.value)
    assert len(data["per_step"]) == g.steps
    assert isinstance(rep, ActionReport)
