import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ldpkit import (Control, Event, InputError, Path, TimeGrid, estimate_event, from_dt,
                    gaussian_block, ldp_slope, make_estimate, minimize_action,
                    quasipotential, sample_stationary)
from ldpkit.grids import (_as_real, _as_reals, check_horizons, check_positive, ladder_steps,
                          same_spacing, step_offset, whole_steps)
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
