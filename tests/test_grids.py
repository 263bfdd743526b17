import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldpkit import (Control, Event, InputError, Path, QPResult, TimeGrid, action,
                    estimate_event, from_dt, gaussian_block, integrate_skeleton, ldp_slope,
                    make_estimate, minimize_action, quasipotential, sample_noise,
                    sample_stationary)
from ldpkit.grids import (_as_real, _as_reals, check_horizons, check_positive, ladder_steps,
                          record_dict, same_spacing, step_offset, whole_steps)
from ldpkit.pullback import pullback_stationary, stationarity_check


def test_basic_fields():
    g = TimeGrid(-1.0, 1.0, 200)
    assert g.dt == pytest.approx(0.01)
    assert g.times().shape == (201,)
    assert g.times()[0] == -1.0
    assert g.times()[-1] == pytest.approx(1.0)


def test_midpoints_are_centered():
    g = TimeGrid(0.0, 1.0, 4)
    assert np.allclose(g.midpoints(), [0.125, 0.375, 0.625, 0.875])


def test_invalid_windows_rejected():
    with pytest.raises(InputError):
        TimeGrid(1.0, 0.0, 10)
    with pytest.raises(InputError):
        TimeGrid(0.0, 1.0, 0)
    for steps in (2.5, float("nan"), float("inf"), 2.0, True, np.float64(3.0)):
        with pytest.raises(InputError):
            TimeGrid(0.0, 1.0, steps)
    assert type(TimeGrid(0.0, 1.0, np.int64(4)).steps) is int  # numpy integers still pass


def test_from_dt_exact():
    g = from_dt(-2.0, 3.0, 0.25)
    assert g.steps == 20
    assert g.dt == pytest.approx(0.25)


def test_from_dt_rejects_non_integer_window():
    with pytest.raises(InputError):
        from_dt(0.0, 1.0, 0.3)


def test_index_of():
    g = TimeGrid(0.0, 1.0, 10)
    assert g.index_of(0.0) == 0
    assert g.index_of(0.7) == 7
    assert g.index_of(1.0) == 10
    with pytest.raises(InputError):
        g.index_of(0.05)
    with pytest.raises(InputError):
        g.index_of(1.1)
    # a time is a finite number: a string or None is refused by name, not left to a bare
    # TypeError, and True is not read as t = 1
    path = Path(g, np.zeros((11, 1)))
    for bad in ("x", None, True, float("nan"), float("inf")):
        with pytest.raises(InputError, match="time must be a finite number"):
            g.index_of(bad)
        with pytest.raises(InputError, match="time must be a finite number"):
            path.at(bad)


def test_step_offset_and_spacing():
    outer = TimeGrid(-5.0, 1.0, 600)
    inner = TimeGrid(-1.0, 1.0, 200)
    assert same_spacing(outer, inner)
    assert step_offset(outer, inner) == 400
    with pytest.raises(InputError):
        step_offset(inner, outer)  # not contained
    misaligned = TimeGrid(-1.005, 1.005, 201)
    with pytest.raises(InputError):
        step_offset(outer, misaligned)


@given(
    steps=st.integers(min_value=1, max_value=2000),
    t0=st.floats(min_value=-100, max_value=100, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=50, allow_nan=False),
)
def test_times_uniform(steps, t0, width):
    g = TimeGrid(t0, t0 + width, steps)
    t = g.times()
    assert len(t) == steps + 1
    # uniform spacing to floating-point accuracy
    assert np.allclose(np.diff(t), g.dt, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_check_positive_refuses_nan_and_infinity(bad):
    check_positive(0.5, "dt")
    with pytest.raises(InputError, match="dt must be positive and finite"):
        check_positive(bad, "dt")


def test_from_dt_refuses_non_finite_inputs():
    for t_end, dt in ((1.0, float("nan")), (1.0, float("inf")), (float("inf"), 0.1),
                      (float("nan"), 0.1)):
        with pytest.raises(InputError):
            from_dt(0.0, t_end, dt)


def test_whole_steps_refuses_non_finite_counts():
    # InputError, where int(round(x)) raises ValueError or OverflowError
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match="not whole"):
            whole_steps(x, "not whole")


def test_horizon_lists_are_positive_finite_and_increasing():
    assert check_horizons([1, 2.5], 2) == [1.0, 2.5]
    for bad in ([], [1.0], [0.0, 1.0], [2.0, 1.0], [1.0, float("nan")],
                [float("nan"), 1.0], [5.0, float("inf")]):
        with pytest.raises(InputError, match="positive, finite"):
            check_horizons(bad, 2)
    with pytest.raises(InputError):  # once an OverflowError from math.ceil
        ladder_steps([5.0, float("inf")], 0.01)
    for bad in (5.0, [[1.0, 2.0]], np.array([[1.0], [2.0]])):  # one list of values
        with pytest.raises(InputError):
            check_horizons(bad, 1)


def test_the_number_rules():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from a float32's own dtype
        assert _as_real(np.float32(0.5), "x") == 0.5
        assert _as_real(np.int64(3), "x") == 3.0 and _as_real(10**300, "x") == 1e300
    for bad in (10**400, True, np.True_, "1", None, float("nan"), float("inf")):
        with pytest.raises(InputError, match="x must be a finite number"):
            _as_real(bad, "x")
    assert _as_reals([1, np.float32(2.0), float("inf")], "x").tolist() == [1.0, 2.0, np.inf]
    for bad in ([1.0, "2"], [True], [[1.0], [2.0, 3.0]], [1.0, [2.0]], np.array([True]),
                np.array(["1"]), [10**400]):
        with pytest.raises(InputError, match="x must be numbers"):
            _as_reals(bad, "x")


# every argument a library function takes as a number, set to `v`, on the model `ou`
_NUMBER_ARGUMENTS = {
    "sample_stationary tol": lambda ou, v: sample_stationary(ou, 0.1, 4, 0, tol=v),
    "sample_stationary dt": lambda ou, v: sample_stationary(ou, 0.1, 4, 0, dt=v),
    "sample_stationary eps": lambda ou, v: sample_stationary(ou, v, 4, 0, dt=0.01),
    "estimate_event eps_list entry": lambda ou, v: estimate_event(
        ou, Event.norm_ge(0.5), eps_list=[0.2, v], n_samples=4, dt=0.01),
    "pullback_stationary tol": lambda ou, v: pullback_stationary(
        ou, 0.1, 0, from_dt(-1.0, 0.0, 0.01), tol=v),
    "quasipotential target entry": lambda ou, v: quasipotential(ou, [v]),
    "quasipotential steps_per_unit": lambda ou, v: quasipotential(ou, [0.5], steps_per_unit=v),
    "quasipotential tol": lambda ou, v: quasipotential(ou, [0.5], tol=v),
    "quasipotential T_schedule entry": lambda ou, v: quasipotential(
        ou, [0.5], T_schedule=[v, 2.0]),
    "minimize_action T": lambda ou, v: minimize_action(ou, [0.5], v, 20),
    "Event.norm_ge threshold": lambda ou, v: Event.norm_ge(v),
    "Event.coord_ge threshold": lambda ou, v: Event.coord_ge(0, v),
    "Event.box corner": lambda ou, v: Event.box([v], [2.0]),
    "gaussian_block dt": lambda ou, v: gaussian_block([0], 0, 4, 1, v),
    "stationarity_check s": lambda ou, v: stationarity_check(
        ou, 0.1, 0, v, view=from_dt(-0.5, 0.0, 0.01)),
    "ldp_slope reference": lambda ou, v: ldp_slope(
        [make_estimate(eps, "e", 100, 50) for eps in (0.3, 0.2, 0.1)], v),
    "TimeGrid t_end": lambda ou, v: TimeGrid(0.0, v, 10),
    "from_dt t_end": lambda ou, v: from_dt(0.0, v, 0.1),
    "Control coefficient": lambda ou, v: Control(from_dt(0.0, 0.2, 0.1), [[0.5], [v]]),
    "Path state": lambda ou, v: Path(from_dt(0.0, 0.1, 0.1), [[0.5], [v]]),
}


@pytest.mark.parametrize("value", [True, "0.1"], ids=["boolean", "numeric-string"])
@pytest.mark.parametrize("argument", list(_NUMBER_ARGUMENTS))
def test_library_arguments_refuse_non_numbers(ou, argument, value):
    # a boolean is not read as 1, nor a string as the number it spells
    with pytest.raises(InputError) as err:
        _NUMBER_ARGUMENTS[argument](ou, value)
    assert err.value.exit_code == 2


def test_tail_stays_inside_the_grid():
    g = TimeGrid(0.0, 1.0, 10)
    assert g.tail(10) is g
    assert g.tail(4) == TimeGrid(1.0 - 4 * g.dt, 1.0, 4)
    for n in (11, 15, 0, -1, 2.0):
        with pytest.raises(InputError):
            g.tail(n)


# ---------------------------------------------------------------------------
# lattice alignment: a window k whole steps off a grid means the same steps to every
# entry point that takes a grid or a control

_DTS = st.sampled_from([0.1, 0.02, 0.01, 0.005, 0.001])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dt=_DTS, start=st.integers(-200, 200), steps=st.integers(1, 40),
       shift=st.integers(-60, 60), length=st.integers(1, 40))
def test_an_offset_control_is_its_zero_extended_table(lin_a2, dt, start, steps, shift,
                                                      length):
    # the control's window starts `shift` steps into the trajectory's (before it for a
    # negative shift) and may overlap it partly or not at all
    grid = TimeGrid(start * dt, (start + steps) * dt, steps)
    cgrid = TimeGrid((start + shift) * dt, (start + shift + length) * dt, length)
    coeffs = np.random.default_rng(steps + 41 * length).normal(size=(length, lin_a2.modes))
    table = np.zeros((steps, lin_a2.modes))
    lo, hi = max(0, shift), min(steps, shift + length)
    if lo < hi:
        table[lo:hi] = coeffs[lo - shift : hi - shift]
    x0 = np.array([0.3, -0.2])
    assert np.array_equal(integrate_skeleton(lin_a2, x0, grid, Control(cgrid, coeffs)).states,
                          integrate_skeleton(lin_a2, x0, grid, table).states)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dt=_DTS, start=st.integers(-200, 200), steps=st.integers(1, 60), data=st.data())
def test_restrict_tail_and_index_of_agree(dt, start, steps, data):
    grid = TimeGrid(start * dt, (start + steps) * dt, steps)
    path = Path(grid, np.random.default_rng(steps).normal(size=(steps + 1, 2)))
    i = data.draw(st.integers(0, steps - 1))
    j = data.draw(st.integers(i + 1, steps))
    times = grid.times()
    window = from_dt(times[i], times[j], dt)
    assert (grid.index_of(window.t_start), grid.index_of(window.t_end)) == (i, j)
    assert np.array_equal(path.restrict(window).states, path.states[i : j + 1])
    tail = grid.tail(steps - i)
    assert tail.t_end == grid.t_end and grid.index_of(tail.t_start) == i
    assert np.array_equal(path.restrict(tail).states, path.states[i:])


@pytest.mark.xfail(strict=True, reason="from_dt recomputes a sub-window's dt from its "
                   "endpoints, here 0.010000000000000009, and sample_noise scales its "
                   "words by sqrt(dt); ROADMAP item 14")
def test_a_from_dt_window_samples_the_lattice_increments():
    full = sample_noise(TimeGrid(-2.0, 2.0, 400), 2, seed=7)
    window = from_dt(-1.74, -1.67, 0.01)
    assert np.array_equal(sample_noise(window, 2, seed=7).increments,
                          full.restrict(window).increments)


def test_one_rule_writes_every_result_record(ou):
    # numpy arrays and scalars, also inside lists, become Python lists and numbers;
    # the nested Path is left out, as the CLI writes it as its own CSV
    path = Path(TimeGrid(-1.0, 0.0, 4), np.zeros((5, 1)))
    result = QPResult(target=np.array([0.5]), horizons=[np.float64(1.0), 2.0],
                      values=[np.float64(0.25)], iterations=[np.int64(3)],
                      converged_value=np.float64(0.25), converged=True, warning=None,
                      defect=np.float32(0.5), path=path)
    record = result.to_dict()
    assert record == record_dict(result) == {
        "target": [0.5], "horizons": [1.0, 2.0], "values": [0.25], "iterations": [3],
        "converged_value": 0.25, "converged": True, "warning": None, "defect": 0.5}
    assert list(record) == [f.name for f in dataclasses.fields(QPResult)][:-1]

    def plain(v):
        return (all(plain(x) for x in v) if type(v) is list
                else type(v) in (float, int, bool, type(None), str))
    assert all(plain(v) for v in record.values()), record
    assert list(action(ou, path).to_dict()) == ["value", "defect", "per_step"]
