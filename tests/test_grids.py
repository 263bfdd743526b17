import numpy as np
import pytest
from hypothesis import given, strategies as st

from ldpkit import InputError, TimeGrid, from_dt
from ldpkit.grids import (check_horizons, check_positive, ladder_steps, same_spacing,
                          step_offset, whole_steps)


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
