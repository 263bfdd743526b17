import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ldpkit import (
    ConfigurationError,
    DivergenceError,
    InputError,
    NonConvergenceError,
    Path,
    PullbackDiag,
    TimeGrid,
    em_step_sde,
    from_dt,
    h_norm,
    make_model,
    pullback_skeleton,
    pullback_stationary,
    sample_noise,
    stationarity_check,
    write_json,
)
from ldpkit.grids import step_offset
from ldpkit.pullback import _em, _ladder_grids, _run_ladder, _segments, default_horizons


def test_default_horizons(ou, hopf):
    view = from_dt(-1.0, 0.0, 0.01)
    assert default_horizons(ou, view) == pytest.approx([6.0, 11.0, 21.0])
    assert default_horizons(hopf, view) == pytest.approx(
        [1 + 5 / 3, 1 + 10 / 3, 1 + 20 / 3]
    )
    late = from_dt(0.5, 1.0, 0.01)
    assert default_horizons(ou, late) == pytest.approx([5.0, 10.0, 20.0])


def test_ladder_grids_measure_from_view_start():
    # the horizon is the distance from t = -n to the view start offset,
    # i.e. grids begin at view.t_start - n exactly when that lands on the
    # step lattice
    view = from_dt(-1.0, 0.0, 0.01)
    grids = _ladder_grids(view, [6.0, 11.0, 21.0])
    assert [g.t_start for g in grids] == pytest.approx([-6.0, -11.0, -21.0])
    assert all(g.t_end == view.t_end for g in grids)
    # off-lattice horizons snap outward, never inward
    snapped = _ladder_grids(view, [1.005, 2.003])
    assert snapped[0].t_start <= -1.005 + 1e-12
    assert snapped[0].t_start == pytest.approx(-1.01)
    assert snapped[1].t_start == pytest.approx(-2.01)


def test_ladder_grids_validation():
    view = from_dt(-1.0, 0.0, 0.01)
    with pytest.raises(InputError):
        _ladder_grids(view, [5.0])
    with pytest.raises(InputError):
        _ladder_grids(view, [5.0, 5.0])
    with pytest.raises(InputError):
        _ladder_grids(view, [-1.0, 2.0])
    with pytest.raises(InputError):
        _ladder_grids(view, [0.5, 2.0])  # starts inside the view
    with pytest.raises(InputError, match="collapse"):
        _ladder_grids(view, [5.001, 5.002])  # both snap outward to 5.01


def test_gap_matches_hand_integration(ou):
    dt = 1e-3
    view = from_dt(-1.0, 0.0, dt)
    horizons = [3.0, 5.0, 8.0]
    path, diag = pullback_stationary(ou, 0.1, seed=21, view=view,
                                     horizons=horizons)

    def hand(n):
        g = from_dt(-n, 0.0, dt)
        inc = sample_noise(g, 1, seed=21).increments[:, 0]
        x = 0.0
        out = []
        for i in range(g.steps):
            x = x * (1.0 - dt) + np.sqrt(0.1) * inc[i]
            out.append(x)
        return np.array([0.0] + out)[g.steps - view.steps :]

    a, b, c = hand(3.0), hand(5.0), hand(8.0)
    assert np.max(np.abs(path.states[:, 0] - c)) < 1e-9
    assert diag.gaps[0] == pytest.approx(np.max(np.abs(b - a)), rel=1e-6)
    assert diag.gaps[1] == pytest.approx(np.max(np.abs(c - b)), rel=1e-6)


def test_pullback_converges_and_reports(ou):
    view = from_dt(-1.0, 1.0, 1e-3)
    path, diag = pullback_stationary(ou, 0.1, seed=3, view=view)
    assert diag.converged
    assert diag.gaps[1] < diag.gaps[0]
    assert diag.fitted_rate is not None and diag.fitted_rate < 0
    assert path.grid == view
    # deterministic in the seed
    again, _ = pullback_stationary(ou, 0.1, seed=3, view=view)
    assert np.array_equal(path.states, again.states)


def test_pullback_eps_ceiling(ou):
    view = from_dt(-1.0, 0.0, 1e-3)
    with pytest.raises(ConfigurationError):
        pullback_stationary(ou, 0.6, seed=0, view=view)
    with pytest.raises(InputError):
        pullback_stationary(ou, -0.1, seed=0, view=view)


def test_zero_noise_pullback_reaches_rest_state(ou):
    view = from_dt(-1.0, 0.0, 1e-3)
    path, diag = pullback_stationary(ou, 0.0, seed=0, view=view)
    assert diag.converged
    assert np.max(np.abs(path.states)) < 1e-8


def test_skeleton_pullback_periodic_orbit(periodic):
    view = from_dt(0.0, 2.0, 1e-3)
    path, diag = pullback_skeleton(periodic, None, view,
                                   horizons=[2.5, 5.0, 7.5], tol=1e-6)
    assert diag.converged
    shift = view.steps // 2  # one forcing period
    drift_over_period = np.max(
        np.abs(path.states[shift:] - path.states[:-shift])
    )
    assert drift_over_period < 1e-6


def test_non_convergence_raised():
    # a ladder whose members never approach each other must be reported
    model = __import__("ldpkit").make_model("ou")
    view = from_dt(-1.0, 0.0, 0.01)
    grids = _ladder_grids(view, [2.0, 3.0, 4.0])

    def stuck(x0, grid, record):
        # row r holds the value r throughout: constant unit gaps
        rows = np.arange(len(x0), dtype=np.float64)[:, None]
        return Path(grid.tail(record), np.broadcast_to(rows, (record + 1, *rows.shape)))

    with pytest.raises(NonConvergenceError) as exc:
        _run_ladder(model, view, grids, stuck, tol=1e-4, seed=77)
    assert exc.value.gaps is not None
    assert exc.value.seed == 77


def test_stationarity_check_small_gap(ou):
    view = from_dt(-1.0, 1.0, 1e-3)
    gap = stationarity_check(ou, 0.1, seed=5, s=0.5, view=view)
    assert gap < 1e-2
    zero = stationarity_check(ou, 0.1, seed=5, s=0.0, view=view)
    assert zero == pytest.approx(0.0, abs=1e-12)


def test_stationarity_check_frozen_values(ou):
    # both ladders' noise words, the base ladder's taken s/dt steps late, pinned
    # while each ladder still read one whole-grid record
    view = from_dt(-1.0, 1.0, 1e-3)
    assert stationarity_check(ou, 0.1, seed=5, s=0.5, view=view).hex() == "0x1.8382b60000000p-33"
    small = make_model("burgers1d", {"grid": 19, "K": 8})
    dt = small.default_dt
    gap = stationarity_check(small, 0.05, seed=7, s=20 * dt, view=TimeGrid(-40 * dt, 40 * dt, 80))
    assert gap.hex() == "0x1.2f5c68013e735p-34"


def test_stationarity_check_validation(ou):
    view = from_dt(-1.0, 1.0, 1e-3)
    with pytest.raises(InputError):
        stationarity_check(ou, 0.1, seed=0, s=-0.5, view=view)
    with pytest.raises(InputError):
        stationarity_check(ou, 0.1, seed=0, s=0.00137, view=view)
    with pytest.raises(ConfigurationError):
        stationarity_check(ou, 0.9, seed=0, s=0.5, view=view)


def test_save_diagnostics(tmp_path):
    diag = PullbackDiag([5.0, 10.0], [0.1], -1.2, True)
    f = tmp_path / "diag.json"
    write_json(diag.to_dict(), f)
    data = json.loads(f.read_text())
    assert data == {
        "horizons": [5.0, 10.0],
        "gaps": [0.1],
        "fitted_rate": -1.2,
        "converged": True,
    }


def test_ladder_tolerance_is_positive_and_finite(ou, periodic):
    view = from_dt(-0.5, 0.0, 0.01)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="tol"):
            pullback_stationary(ou, 0.1, 0, view, tol=tol)
        with pytest.raises(InputError, match="tol"):
            pullback_skeleton(periodic, None, view, tol=tol)


def _ladder_rows(model, eps, noise, view, grids):
    """The ladder's rung rows on the view (shortest horizon first), its path and diagnostics."""
    last = []

    def integrate(x0, grid, record):
        last[:] = [em_step_sde(model, x0, grid, noise, eps, record)]
        return last[0]

    path, diag = _run_ladder(model, view, grids, integrate, tol=10.0)
    return last[0].restrict(view).states[:, ::-1], path, diag


def _check_ladder_against_rungs(model, eps, seed, view, grids):
    noise = sample_noise(grids[-1], model.modes, seed)
    rows, path, diag = _ladder_rows(model, eps, noise, view, grids)
    for i, grid in enumerate(grids):
        ref = em_step_sde(model, model.pullback_init, grid, noise, eps).restrict(view).states
        assert np.max(np.abs(rows[:, i] - ref)) <= 1e-12 * np.max(np.abs(ref)), (i, grid)
    assert path.grid == view and np.array_equal(path.states, rows[:, -1])
    assert diag.gaps == [float(np.max(h_norm(model, rows[:, i] - rows[:, i - 1])))
                         for i in range(1, len(grids))]
    # drawing each segment's words when it starts steps the same ladder bit for bit
    drawn, drawn_diag = _run_ladder(model, view, grids, _em(model, eps, seed, grids[-1]),
                                    tol=10.0)
    assert np.array_equal(drawn.states, path.states) and drawn_diag == diag


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["ou", "periodic1d", "hopf-radial", "linear2d-a1"]),
       dt=st.floats(0.002, 0.05), first=st.integers(-40, 10), steps=st.integers(1, 40),
       lead=st.floats(0.0, 1.0), widths=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_segments_tile_the_longest_rung(name, dt, first, steps, lead, widths, seed):
    view = TimeGrid(first * dt, (first + steps) * dt, steps)
    horizons = list(np.cumsum([max(0.0, -view.t_start) + lead, *widths]))
    try:
        grids = _ladder_grids(view, horizons)
    except InputError:
        assume(False)  # not a ladder ladder_steps accepts
    segments = _segments(grids)
    longest = grids[-1]
    assert sum(s.steps for s in segments) == longest.steps
    assert segments[-1] == grids[0]
    offset = 0
    for segment, rung in zip(segments, grids[::-1]):
        assert step_offset(longest, segment) == offset == step_offset(longest, rung)
        offset += segment.steps
    model = make_model(name)
    _check_ladder_against_rungs(model, min(0.1, model.eps0), seed, view, grids)


def test_rungs_one_step_apart(hopf, periodic):
    # two rungs whose starts are one step apart leave a one-step segment
    view = from_dt(-0.5, 0.5, 0.01)
    grids = _ladder_grids(view, [1.0, 1.01, 2.0])
    assert [s.steps for s in _segments(grids)] == [99, 1, 150]
    for model in (hopf, periodic):
        _check_ladder_against_rungs(model, 0.05, 4, view, grids)


def test_ladder_divergence_names_the_rung(ou):
    # at dt = 2.05 every rung blows up; the longest has grown the most, so it is named,
    # at the step its own single-state run reports
    view = TimeGrid(-2.05 * 10, 0.0, 10)
    horizons = [2.05 * 300, 2.05 * 400, 2.05 * 500]
    grids = _ladder_grids(view, horizons)
    with pytest.raises(DivergenceError) as single:
        em_step_sde(ou, ou.pullback_init, grids[-1], sample_noise(grids[-1], 1, 9), 0.1)
    with pytest.raises(DivergenceError) as exc:
        pullback_stationary(ou, 0.1, 9, view, horizons=horizons)
    assert exc.value.step == single.value.step
    assert exc.value.time == pytest.approx(single.value.time, rel=1e-12)
    assert f"rung with horizon {-grids[-1].t_start:g}" in str(exc.value)


def test_ladder_memory_follows_the_view():
    # segments record only their last step and the view: quadrupling the horizons
    # grows the traced peak by little more than the noise record's own growth,
    # where recording every state would grow it by the states of the longer rungs.
    # Each segment draws only its own words, so from x4 to x16 the peak grows by
    # one segment's words, well below what a whole-grid record would add.
    model = make_model("burgers1d", {"grid": 19, "K": 8})
    dt = model.default_dt
    view = TimeGrid(-40 * dt, 0.0, 40)
    peaks, records = [], []
    for factor in (1, 4, 16):
        horizons = [factor * n for n in default_horizons(model, view)]
        records.append(_ladder_grids(view, horizons)[-1].steps * model.modes * 8)
        tracemalloc.start()
        try:
            pullback_stationary(model, 0.05, 7, view, horizons=horizons)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * (records[1] - records[0]), (peaks, records)
    assert peaks[2] - peaks[1] <= 0.75 * (records[2] - records[1]), (peaks, records)
