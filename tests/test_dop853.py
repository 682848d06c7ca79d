"""The in-house DOP853 stepper against scipy's solve_ivp, bit for bit.

sapsim itself never imports scipy's ODE package; the tests do, as the
independent implementation the transcription must reproduce exactly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sapsim import GeometryError, IntegrationError, calibrated_model
from sapsim import dop853
from sapsim.geometry import build_folded5, build_fsap3, build_sap3
from sapsim.propagator import UM_PER_MM, _rhs

from conftest import LAM0, TARGET_RATIO


def assert_bit_identical(ours, ref, t_dense=None):
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    assert ours.nfev == ref.nfev
    if t_dense is not None:
        assert np.array_equal(ours.sol(t_dense), ref.sol(t_dense))


def both(rhs, t0, t1, y0, rtol, atol, dense):
    ours = dop853.solve(rhs, t0, t1, y0, rtol, atol, dense_output=dense)
    ref = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense)
    assert ref.success
    return ours, ref


@st.composite
def devices(draw):
    kind = draw(st.sampled_from(["sap3", "fsap3", "folded5"]))
    half_length = draw(st.floats(2000.0, 12000.0))
    sep = draw(st.floats(16.0, 34.0))
    angle = draw(st.floats(0.01, 0.05))
    width = draw(st.floats(3.0, 7.0))
    try:
        if kind == "sap3":
            layout = build_sap3(half_length, sep, angle, width)
        elif kind == "fsap3":
            layout = build_fsap3(half_length, sep, angle, width,
                                 draw(st.floats(0.5, 2.0)))
        else:
            layout = build_folded5(half_length, sep, angle, width)
    except GeometryError:
        assume(False)
    model = calibrated_model(layout, TARGET_RATIO,
                             draw(st.floats(0.1, 2.0)), LAM0,
                             detuning=draw(st.floats(-0.5, 0.5)))
    return layout, model


@given(device=devices(), lam=st.floats(1500.0, 1630.0),
       backward=st.booleans(), dense=st.booleans(),
       rtol=st.sampled_from([1e-10, 1e-8, 1e-6]),
       n_dense=st.integers(2, 600))
@settings(max_examples=60, deadline=None)
def test_matches_solve_ivp_bit_for_bit(device, lam, backward, dense, rtol,
                                       n_dense):
    layout, model = device
    rhs = _rhs([layout], [model], [lam], UM_PER_MM)
    z_end_mm = layout.z_end_um / UM_PER_MM
    n = layout.n_guides
    y0 = np.zeros(n, dtype=complex)
    y0[layout.input_label - 1] = 1.0
    span = (z_end_mm, 0.0) if backward else (0.0, z_end_mm)
    ours, ref = both(rhs, *span, y0, rtol, rtol * 1e-2, dense)
    assert_bit_identical(ours, ref,
                         np.linspace(*span, n_dense) if dense else None)


def test_dense_samples_match_in_any_order(folded5_ref, model_ref):
    rhs = _rhs([folded5_ref], [model_ref], [1540.0], UM_PER_MM)
    z_end_mm = folded5_ref.z_end_um / UM_PER_MM
    y0 = np.array([0, 0, 1, 0, 0], dtype=complex)
    ours, ref = both(rhs, 0.0, z_end_mm, y0, 1e-10, 1e-12, True)
    # step points (segment boundaries) and points beyond the span included
    t = np.concatenate([ref.t, [-0.1, z_end_mm + 0.1],
                        np.random.default_rng(3).uniform(0, z_end_mm, 50)])
    assert_bit_identical(ours, ref, t)


def test_step_size_underflow_raises_with_scipy_message():
    def blowup(t, y):          # y' = y^2, y(0) = 1: y = 1/(1 - t)
        return y * y

    y0 = np.array([1.0 + 0.0j])
    ref = solve_ivp(blowup, (0.0, 2.0), y0, method="DOP853")
    assert ref.status == -1
    with pytest.raises(IntegrationError) as info:
        dop853.solve(blowup, 0.0, 2.0, y0, 1e-3, 1e-6)
    assert str(info.value) == ref.message == dop853.TOO_SMALL_STEP


def test_tiny_rtol_raised_to_floor_like_scipy(sap3_ref, model_sap3):
    rhs = _rhs([sap3_ref], [model_sap3], [LAM0], UM_PER_MM)
    y0 = np.array([1, 0, 0], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-16,
                        atol=1e-20)
        with pytest.warns(UserWarning, match="rtol"):
            ours = dop853.solve(rhs, 0.0, 1.0, y0, 1e-16, 1e-20)
    assert_bit_identical(ours, ref)


@pytest.mark.parametrize("kwargs", [
    dict(t0=1.0, t_bound=1.0, y0=[1j]),
    dict(t0=0.0, t_bound=1.0, y0=[np.nan]),
    dict(t0=0.0, t_bound=1.0, y0=[[[1j]]]),
    dict(t0=0.0, t_bound=1.0, y0=[[1j]], dense_output=True),
    dict(t0=0.0, t_bound=1.0, y0=[1j], atol=-1.0),
])
def test_rejects_out_of_scope_input(kwargs):
    kwargs = {"rtol": 1e-6, "atol": 1e-9, **kwargs}
    with pytest.raises(ValueError):
        dop853.solve(lambda t, y: 1j * y, **kwargs)
