import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ldpkit import (
    ConfigurationError,
    Control,
    DivergenceError,
    InputError,
    Path,
    TimeGrid,
    drift,
    em_step_sde,
    from_dt,
    h_norm_sq,
    integrate_skeleton,
    load_path,
    make_model,
    pullback_stationary,
    sample_noise,
    save_path,
)
import ldpkit.pullback
from ldpkit.integrate import (BLOWUP_NORM, check_dt, check_eps, check_state, em_advance,
                              mode_drive)
from ldpkit.noise import gaussian_block


def test_path_validation_and_lookup():
    g = from_dt(0.0, 1.0, 0.25)
    states = np.arange(10.0).reshape(5, 2)
    p = Path(g, states)
    assert p.dim == 2
    assert np.allclose(p.at(0.5), [4.0, 5.0])
    with pytest.raises(InputError):
        p.at(0.3)
    with pytest.raises(InputError):
        Path(g, states[:4])


def test_path_restrict():
    g = from_dt(-1.0, 1.0, 0.1)
    p = Path(g, np.linspace(0.0, 1.0, 21)[:, None])
    sub = p.restrict(from_dt(0.0, 0.5, 0.1))
    assert sub.grid.steps == 5
    assert np.allclose(sub.states[:, 0], np.linspace(0.5, 0.75, 6))


def test_em_matches_hand_recursion(ou):
    dt = 0.01
    g = from_dt(0.0, 1.0, dt)
    noise = sample_noise(g, 1, seed=12)
    eps = 0.2
    path = em_step_sde(ou, np.array([1.5]), g, noise, eps)
    x = 1.5
    for i in range(g.steps):
        x = x * (1.0 - dt) + np.sqrt(eps) * noise.increments[i, 0]
        assert path.states[i + 1, 0] == pytest.approx(x, abs=1e-13)


def test_em_zero_noise_is_euler(ou):
    dt = 1e-3
    g = from_dt(0.0, 2.0, dt)
    noise = sample_noise(g, 1, seed=0)
    path = em_step_sde(ou, np.array([1.0]), g, noise, eps=0.0)
    assert path.states[-1, 0] == pytest.approx((1.0 - dt) ** g.steps)


def test_em_input_validation(ou, lin_a2):
    g = from_dt(0.0, 1.0, 0.1)
    noise = sample_noise(g, 1, seed=0)
    with pytest.raises(InputError):
        em_step_sde(ou, np.array([0.0]), g, noise, eps=-0.1)
    with pytest.raises(ConfigurationError):  # above ou's ceiling eps0 = 0.5
        em_step_sde(ou, np.array([0.0]), g, noise, eps=0.9)
    with pytest.raises(InputError):
        em_step_sde(lin_a2, np.zeros(2), g, noise, 0.1)  # needs 2 modes
    off_spacing = sample_noise(from_dt(0.0, 1.0, 0.05), 1, seed=0)
    with pytest.raises(InputError):
        em_step_sde(ou, np.array([0.0]), g, off_spacing, 0.1)


def test_em_uses_noise_by_absolute_step(ou):
    # integrating on a sub-window of a longer record or a fresh record
    # over the same window gives identical trajectories
    dt = 0.01
    long_noise = sample_noise(from_dt(-2.0, 1.0, dt), 1, seed=9)
    window = from_dt(-0.5, 0.5, dt)
    a = em_step_sde(ou, np.array([1.0]), window, long_noise, 0.3)
    b = em_step_sde(ou, np.array([1.0]), window, sample_noise(window, 1, seed=9), 0.3)
    assert np.array_equal(a.states, b.states)


def test_skeleton_second_order(ou):
    # Heun on dx = -x dt has local order 3, global order 2
    errs = []
    for dt in (0.02, 0.01, 0.005):
        g = from_dt(0.0, 1.0, dt)
        p = integrate_skeleton(ou, np.array([1.0]), g)
        errs.append(abs(p.states[-1, 0] - np.exp(-1.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_skeleton_with_control_tracks_target(ou):
    # v(t) = 2 e^t makes u(t) = e^t an exact controlled trajectory
    dt = 1e-3
    g = from_dt(0.0, 1.0, dt)
    v = 2.0 * np.exp(g.midpoints())[:, None]
    p = integrate_skeleton(ou, np.array([1.0]), g, control=v)
    assert np.max(np.abs(p.states[:, 0] - np.exp(g.times()))) < 5e-6


def test_skeleton_control_objects_and_zero_extension(ou):
    dt = 0.01
    g = from_dt(0.0, 2.0, dt)
    cg = from_dt(0.5, 1.0, dt)
    coeffs = np.ones((cg.steps, 1))
    ctrl = Control(cg, coeffs)
    p = integrate_skeleton(ou, np.array([0.0]), g, control=ctrl)
    # zero control before t = 0.5 keeps the trajectory at the rest state
    assert np.allclose(p.states[: g.index_of(0.5) + 1], 0.0)
    assert p.states[-1, 0] != 0.0
    # raw tables must match the grid exactly
    with pytest.raises(InputError):
        integrate_skeleton(ou, np.array([0.0]), g, control=np.ones((7, 1)))
    bad_spacing = Control(from_dt(0.0, 1.0, 0.02), np.ones((50, 1)))
    with pytest.raises(InputError):
        integrate_skeleton(ou, np.array([0.0]), g, control=bad_spacing)
    # same spacing, but 0.4 steps off the trajectory's lattice: refused, not snapped
    off_lattice = Control(from_dt(0.504, 1.004, dt), coeffs)
    with pytest.raises(InputError, match="lattice"):
        integrate_skeleton(ou, np.array([0.0]), g, control=off_lattice)


def test_stability_ceiling_enforced(burgers):
    # one check for every stepping entry point: a configuration error,
    # never a divergence after the first few steps
    g = from_dt(0.0, 0.01, 1e-3)  # far above h^2/2
    with pytest.raises(ConfigurationError):
        integrate_skeleton(burgers, np.zeros(64), g)
    with pytest.raises(ConfigurationError):
        em_step_sde(burgers, np.zeros(64), g, sample_noise(g, burgers.modes, 0), 0.05)
    with pytest.raises(ConfigurationError):
        pullback_stationary(burgers, 0.05, seed=0, view=g)


def _span(coeffs, model):
    """sum_k coeffs_k e_k along the last axis, in mode_drive's fixed order."""
    return np.einsum("...k,dk->...d", coeffs, model.mode_matrix, optimize=False)


def _first_blowup_step(model, x, grid, noise, eps):
    """Replay EM one 1-D step at a time; the first step past BLOWUP_NORM."""
    drive = np.sqrt(eps) * _span(noise.increments * model.mode_weights, model)
    times = grid.times()
    for i in range(grid.steps):
        x = x + grid.dt * drift(model, x, times[i]) + model.diffusion_factor(x) * drive[i]
        if not np.all(np.isfinite(x)) or h_norm_sq(model, x) > BLOWUP_NORM**2:
            return i + 1
    return None


def test_divergence_reported(burgers, ou):
    g = TimeGrid(0.0, 0.01, 200)  # dt = 5e-5 < h^2/2
    huge = 1e7 * np.ones(64)
    noise = sample_noise(g, 16, seed=0)
    with pytest.raises(DivergenceError) as exc:
        em_step_sde(burgers, huge, g, noise, eps=0.0)
    assert exc.value.step == _first_blowup_step(burgers, huge, g, noise, 0.0) == 1
    assert exc.value.time == g.times()[1]
    # at dt = 2.05 an ou step maps x to -1.05 x + noise: the blow-up comes
    # after the first 256-step block of checks
    g = TimeGrid(0.0, 2.05 * 600, 600)
    noise = sample_noise(g, 1, seed=2)
    with pytest.raises(DivergenceError) as exc:
        em_step_sde(ou, np.array([1.0]), g, noise, 0.1)
    step = _first_blowup_step(ou, np.array([1.0]), g, noise, 0.1)
    assert 256 < step < 512
    assert exc.value.step == step
    assert exc.value.time == g.times()[step]


def test_stepping_frozen_values(burgers):
    # frozen-seed paths over two whole check intervals and a partial third:
    # drawing the drive per interval must reproduce these bytes exactly
    def sha256(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()

    dt = burgers.default_dt
    grid = TimeGrid(-700 * dt, 0.0, 700)
    x0 = np.sin(np.linspace(0.3, 3.0, burgers.dim)) * 0.5
    noise = sample_noise(grid, burgers.modes, 4)
    assert sha256(em_step_sde(burgers, x0, grid, noise, burgers.default_eps).states) == (
        "01de9f89c64f8db900bf66589ff43bbf444e98c7a57c3aafae93bf4d678a09e1")
    table = np.cos(np.arange(700 * burgers.modes) * 0.37).reshape(700, burgers.modes)
    assert sha256(integrate_skeleton(burgers, x0, grid, table).states) == (
        "71323aba0e9f9d985276c31a92e2afebbc45f984f33cf41ec292a73bedb593c9")


def test_save_load_roundtrip(tmp_path, lin_a2):
    g = from_dt(0.0, 0.5, 0.01)
    noise = sample_noise(g, 2, seed=4)
    p = em_step_sde(lin_a2, np.array([0.3, -0.2]), g, noise, 0.1)
    f = tmp_path / "path.csv"
    save_path(p, f)
    back = load_path(f)
    assert back.grid.steps == g.steps
    assert back.grid.t_start == pytest.approx(g.t_start)
    assert np.array_equal(back.states, p.states)


def test_load_rejects_non_uniform_times(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("time,x1\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(InputError):
        load_path(f)
    f.write_text("time,x1\n0.0,1.0\nnan,1.0\n0.2,1.0\n")  # NaN fails every comparison
    with pytest.raises(InputError, match="not a uniform grid"):
        load_path(f)


def test_mode_drive_is_the_per_seed_product(ou, lin_a2, hopf, burgers):
    # identity mode matrices skip the product, a*1 + b*0 = a being exact;
    # burgers1d sums over the modes in one fixed order, so a seed or a step
    # alone is its block's slice
    seeds = np.arange(1, 8, dtype=np.uint64)
    for model in (ou, lin_a2, hopf, burgers):
        for steps in (25, 1):
            inc = gaussian_block(seeds, -30, steps, model.modes, 0.01)
            expected = np.stack([_span(np.sqrt(0.2) * (x * model.mode_weights), model)
                                 for x in inc])
            drive = mode_drive(model, 0.2, inc)
            assert drive.shape == (steps, len(seeds), model.dim)
            assert np.array_equal(drive, expected.transpose(1, 0, 2)), model.name
            # a seed-major copy of the same increments gives the same drive
            assert np.array_equal(mode_drive(model, 0.2, inc.copy()), drive), model.name
            assert np.array_equal(mode_drive(model, 0.2, inc[2:3]), drive[:, 2:3]), model.name
            assert np.array_equal(mode_drive(model, 0.2, inc[:, -1:]), drive[-1:]), model.name


def test_unit_diffusion_step_is_the_generic_kick():
    model = make_model("burgers1d", {"diffusion": "additive"})
    assert model.unit_diffusion
    generic = dataclasses.replace(model, diffusion_factor=lambda u: np.ones(np.shape(u)[:-1]))
    assert not generic.unit_diffusion
    dt = model.default_dt
    inc = gaussian_block(np.arange(1, 4, dtype=np.uint64), -300, 300, model.modes, dt)
    drive = mode_drive(model, 0.05, inc)
    times = np.arange(-300, 0) * dt
    start = np.sin(np.linspace(0.0, 30.0, 2 * 3 * model.dim)).reshape(6, model.dim)
    runs = []
    for m in (model, generic):
        x = start.copy()  # two blocks of three rows share each step's drive
        em_advance(m, x, times, dt, drive)
        runs.append(x)
    assert np.array_equal(runs[0], runs[1])
    grid = TimeGrid(-300 * dt, 0.0, 300)
    noise = sample_noise(grid, model.modes, seed=4)
    paths = [em_step_sde(m, start[0], grid, noise, 0.05).states for m in (model, generic)]
    assert np.array_equal(paths[0], paths[1])


def test_mode_drive_spans_modes(lin_a2, burgers):
    # identity modes pass the coefficients through
    drive = mode_drive(lin_a2, 1.0, np.array([[[1.0, -2.0]]]))
    assert np.array_equal(drive, [[[1.0, -2.0]]])
    # burgers1d mode k enters scaled by its weight k^-2
    coeffs = np.zeros((1, 1, burgers.modes))
    coeffs[..., 2] = 1.0
    assert np.allclose(mode_drive(burgers, 1.0, coeffs)[0, 0], burgers.mode_matrix[:, 2] / 9.0)
    # a control with the wrong mode count is refused before any step
    g = from_dt(0.0, 0.1, 0.01)
    with pytest.raises(InputError):
        integrate_skeleton(lin_a2, np.zeros(2), g, control=np.ones((g.steps, 1)))
    with pytest.raises(InputError):
        integrate_skeleton(lin_a2, np.zeros(2), g, control=Control(g, np.ones((g.steps, 1))))


def _heun_replay(model, x, grid, table):
    """Heun one step at a time, k = f + b(.) sum_k v_k c_k e_k with a fresh sum per step."""
    times = grid.times()
    out = [x]
    for i in range(grid.steps):
        push = _span(table[i] * model.mode_weights, model)
        k1 = drift(model, x, times[i]) + model.diffusion_factor(x) * push
        pred = x + grid.dt * k1
        k2 = drift(model, pred, times[i + 1]) + model.diffusion_factor(pred) * push
        x = x + 0.5 * grid.dt * (k1 + k2)
        out.append(x)
    return np.array(out)


SKELETON_MODELS = [
    *(pytest.param((name, None), id=name)
      for name in ("ou", "periodic1d", "linear2d-a1", "linear2d-a2", "hopf-radial")),
    pytest.param(("burgers1d", {"grid": 19, "K": 8}), id="burgers1d-small"),
]


@pytest.mark.parametrize("spec", SKELETON_MODELS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(steps=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
@example(steps=256, seed=1)
@example(steps=257, seed=2)
def test_skeleton_is_the_per_step_heun_recursion(spec, steps, seed):
    model = make_model(*spec)
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, steps * model.default_dt, steps)
    x0 = 0.5 * model.sample_state(rng)
    table = rng.normal(size=(steps, model.modes))
    path = integrate_skeleton(model, x0, grid, control=table)
    assert np.array_equal(path.states, _heun_replay(model, x0, grid, table))


def test_skeleton_divergence_reported(ou):
    # at dt = 2.05 a Heun step maps x to 1.05125 x: the blow-up comes after
    # the first 256-step block of checks
    g = TimeGrid(0.0, 2.05 * 600, 600)
    with pytest.raises(DivergenceError) as exc:
        integrate_skeleton(ou, np.array([1.0]), g)
    states = _heun_replay(ou, np.array([1.0]), g, np.zeros((g.steps, 1)))
    step = int(np.argmax(h_norm_sq(ou, states) > BLOWUP_NORM**2))
    assert step == 277
    assert exc.value.step == step
    assert exc.value.time == g.times()[step] == pytest.approx(567.85)


def test_steppers_leave_x0_alone(lin_a2, burgers):
    # both steppers advance their state in place, on a copy of x0
    for model in (lin_a2, burgers):
        g = TimeGrid(0.0, 50 * model.default_dt, 50)
        x0 = 0.1 * np.sin(np.arange(1.0, model.dim + 1))
        keep = x0.copy()
        a = em_step_sde(model, x0, g, sample_noise(g, model.modes, seed=1), 0.05)
        b = integrate_skeleton(model, x0, g, control=np.ones((g.steps, model.modes)))
        assert np.array_equal(x0, keep), model.name
        assert np.array_equal(a.states[0], keep) and np.array_equal(b.states[0], keep)


def test_caller_memory_is_never_scaled(monkeypatch, all_models):
    # only the batched sampler's own noise block is scaled in place
    for model in all_models:
        dt = model.default_dt
        g = TimeGrid(-40 * dt, 0.0, 40)
        noise = sample_noise(g, model.modes, seed=2)
        keep = noise.increments.tobytes()
        em_step_sde(model, model.pullback_init, g, noise, 0.05)
        assert noise.increments.tobytes() == keep, model.name
        table = np.linspace(-1.0, 1.0, g.steps * model.modes).reshape(g.steps, model.modes)
        keep = table.tobytes()
        integrate_skeleton(model, model.pullback_init, g, control=table)
        assert table.tobytes() == keep, model.name

    sampled = []

    def recording(grid, modes, seed):
        rec = sample_noise(grid, modes, seed)
        sampled.append((rec, rec.increments.tobytes()))
        return rec

    monkeypatch.setattr(ldpkit.pullback, "sample_noise", recording)
    for model in all_models:
        dt = model.default_dt
        pullback_stationary(model, 0.05, 3, TimeGrid(-10 * dt, 0.0, 10),
                            horizons=[100 * dt, 200 * dt, 300 * dt], tol=1.0)
        rec, keep = sampled.pop()
        assert rec.increments.tobytes() == keep, model.name


def test_check_eps_refuses_nan(ou):
    with pytest.raises(InputError):
        check_eps(ou, float("nan"))
    with pytest.raises(ConfigurationError):
        check_eps(ou, float("inf"))


def test_check_dt_refuses_nan_and_infinity(ou):
    for dt in (float("nan"), float("inf"), 0.0):
        with pytest.raises(InputError):
            check_dt(ou, dt)


def test_check_state_is_one_finite_state(ou, lin_a2):
    assert check_state(ou, 0.5).shape == (1,)
    with pytest.raises(InputError, match="target for 'linear2d-a2' must have shape"):
        check_state(lin_a2, [1.0], "target")
    with pytest.raises(InputError, match="non-finite"):
        check_state(lin_a2, [1.0, float("inf")])


def test_stability_ceiling_up_to_the_alignment_tolerance(burgers):
    # 20 steps of the ceiling over [-20 dt, 0] give a grid dt one ulp off the ceiling
    dt = burgers.max_stable_dt
    view = TimeGrid(-20 * dt, 0.0, 20)
    path, diag = pullback_stationary(burgers, 0.05, 0, view, horizons=[0.01, 0.02])
    assert path.grid == view and len(diag.gaps) == 1
    above = dt * (1.0 + 1e-6)
    with pytest.raises(ConfigurationError) as exc:
        pullback_stationary(burgers, 0.05, 0, TimeGrid(-20 * above, 0.0, 20),
                            horizons=[0.01, 0.02])
    assert f"stability ceiling {dt!r}" in str(exc.value)  # both numbers at repr precision


# every shipped model plus additive burgers1d, as (name, params)
BLOCK_MODELS = [
    *(pytest.param((name, None), id=name) for name in
      ("ou", "periodic1d", "linear2d-a1", "linear2d-a2", "hopf-radial", "burgers1d")),
    pytest.param(("burgers1d", {"diffusion": "additive"}), id="burgers1d-additive"),
]


@pytest.mark.parametrize("spec", BLOCK_MODELS)
def test_row_block_is_the_single_state_calls(spec):
    # rows of a block start together and share the noise (or control); each row is
    # its own single-state call
    model = make_model(*spec)
    dt = model.default_dt
    grid = TimeGrid(-300 * dt, 0.0, 300)
    rng = np.random.default_rng(8)
    block = np.array([model.pullback_init, *(0.5 * model.sample_state(rng) for _ in range(2))])
    noise = sample_noise(grid, model.modes, seed=6)
    table = rng.normal(size=(grid.steps, model.modes))
    runs = [(em_step_sde(model, block, grid, noise, 0.05),
             [em_step_sde(model, row, grid, noise, 0.05) for row in block]),
            (integrate_skeleton(model, block, grid, table),
             [integrate_skeleton(model, row, grid, table) for row in block])]
    for path, singles in runs:
        assert path.states.shape == (grid.steps + 1, 3, model.dim) and path.dim == model.dim
        expected = np.stack([p.states for p in singles], axis=1)
        assert np.array_equal(path.states, expected)


def test_row_block_reports_the_diverging_row_and_step(ou):
    # at dt = 2.05 an ou step maps x to -1.05 x + noise, so the row started
    # largest crosses the blow-up norm first, after the first 256-step check
    g = TimeGrid(0.0, 2.05 * 600, 600)
    noise = sample_noise(g, 1, seed=2)
    block = np.array([[1e-3], [1.0], [1e-3]])
    steps = []
    for row in block:
        with pytest.raises(DivergenceError) as single:
            em_step_sde(ou, row, g, noise, 0.1)
        assert single.value.row is None and "row" not in str(single.value)
        steps.append(single.value.step)
    assert 256 < steps[1] < min(steps[0], steps[2])
    with pytest.raises(DivergenceError) as exc:
        em_step_sde(ou, block, g, noise, 0.1)
    assert (exc.value.row, exc.value.step) == (1, steps[1])
    assert exc.value.time == g.times()[steps[1]]
    assert "trajectory row 1 of 'ou' diverged at step" in str(exc.value)
    # the skeleton's block: x -> 1.05125 x, row 1 starts 1000 times higher
    with pytest.raises(DivergenceError) as exc:
        integrate_skeleton(ou, np.array([[1.0], [1e3], [1.0]]), g)
    states = _heun_replay(ou, np.array([1e3]), g, np.zeros((g.steps, 1)))
    assert exc.value.row == 1
    assert exc.value.step == int(np.argmax(h_norm_sq(ou, states) > BLOWUP_NORM**2))


def test_row_block_validation(ou, lin_a2):
    g = from_dt(0.0, 0.1, 0.01)
    noise = sample_noise(g, 2, seed=0)
    with pytest.raises(InputError, match="non-finite"):
        em_step_sde(lin_a2, np.array([[0.0, 0.0], [np.nan, 0.0]]), g, noise, 0.1)
    with pytest.raises(InputError, match="must have shape"):
        em_step_sde(lin_a2, np.zeros((3, 3)), g, noise, 0.1)
    with pytest.raises(InputError, match="must have shape"):
        integrate_skeleton(lin_a2, np.zeros((0, 2)), g)
    # a block of one one-dimensional row is a block, not one state
    path = integrate_skeleton(ou, np.array([[0.5]]), g)
    assert path.states.shape == (g.steps + 1, 1, 1)


def test_save_path_refuses_a_row_block(tmp_path, ou):
    g = from_dt(0.0, 0.1, 0.01)
    block = integrate_skeleton(ou, np.array([[0.5], [1.0]]), g)
    with pytest.raises(InputError, match="one-state path"):
        save_path(block, tmp_path / "block.csv")
    assert not (tmp_path / "block.csv").exists()
