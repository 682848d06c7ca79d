"""The batched propagation route against the per-system one and the oracle.

``propagate_batch`` integrates many systems with one DOP853 solve; every
multi-system caller (sweeps, scans, calibration, the design grid) goes
through it. These tests cross-check it, member by member, against the 1-D
``propagate`` and the independent piecewise-constant ``propagate_oracle``,
and check that a failing member fails the batch as it fails alone.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sapsim import (GeometryError, IntegrationError, build_folded5,
                    build_fsap3, build_sap3, calibrated_model, dop853,
                    nominal_input, propagate, propagate_batch,
                    propagate_oracle, propagator)

from conftest import BATCH_DA, KAPPA_REF, LAM0, TARGET_RATIO

# Acceptance criterion 1: agreement with the oracle at 20000 slices.
ORACLE_BOUND = 1e-6
ORACLE_SLICES = 20000


@st.composite
def device(draw, kinds):
    kind = draw(st.sampled_from(kinds))
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
    return layout, model, draw(st.floats(1500.0, 1630.0))


# one batch holds one guide count: 3-guide devices of both kinds mixed, or
# folded5 devices; their lengths differ, so members step in u = z / z_end
batches = st.one_of(st.lists(device(["sap3", "fsap3"]), min_size=1, max_size=4),
                    st.lists(device(["folded5"]), min_size=1, max_size=4))


@given(members=batches)
@settings(max_examples=15, deadline=None)
def test_batch_matches_scalar_and_oracle(members):
    layouts, models, lams = zip(*members)
    finals = propagate_batch(layouts, models, lams)
    for layout, model, lam, final in zip(layouts, models, lams, finals):
        scalar = propagate(layout, model, lam).final.amplitudes
        assert final.z_um == layout.z_end_um and final.wavelength_nm == lam
        assert np.max(np.abs(final.amplitudes - scalar)) <= BATCH_DA
    # the oracle costs ~0.1 s a system: check one member per batch
    layout, model, lam = members[0]
    oracle = propagate_oracle(layout, model, lam, nominal_input(layout, lam),
                              ORACLE_SLICES).amplitudes
    assert np.max(np.abs(finals[0].amplitudes - oracle)) <= ORACLE_BOUND


def test_empty_batch():
    assert propagate_batch([], [], []) == []


def test_mixed_guide_counts_rejected(sap3_ref, folded5_ref, model_sap3,
                                     model_ref):
    with pytest.raises(ValueError, match="guide count"):
        propagate_batch([sap3_ref, folded5_ref], [model_sap3, model_ref],
                        [LAM0, LAM0])


@pytest.mark.parametrize("kappa_ref", [1e300, np.inf])
def test_failing_member_raises_its_own_message(folded5_ref, kappa_ref):
    # 1e300: i H a overflows and the step size underflows; inf: H itself
    # is not finite. Either way the batch fails as the member fails alone.
    good = calibrated_model(folded5_ref, TARGET_RATIO, KAPPA_REF, LAM0)
    bad = calibrated_model(folded5_ref, TARGET_RATIO, kappa_ref, LAM0)
    with pytest.raises(IntegrationError) as alone:
        propagate(folded5_ref, bad, 1565.0)
    with pytest.raises(IntegrationError) as batched:
        propagate_batch([folded5_ref] * 3, [good, bad, good],
                        [1500.0, 1565.0, 1630.0])
    assert str(batched.value) == str(alone.value)
    assert "lam = 1565.0 nm" in str(batched.value)


def test_non_finite_member_named_in_the_batch(folded5_ref):
    # the batched solve itself (before propagate_batch's one-at-a-time
    # rerun) names the wavelength of its non-finite member
    good = calibrated_model(folded5_ref, TARGET_RATIO, KAPPA_REF, LAM0)
    bad = calibrated_model(folded5_ref, TARGET_RATIO, np.inf, LAM0)
    with pytest.raises(IntegrationError,
                       match=r"^non-finite Hamiltonian at lam = 1565.0 nm$"):
        propagator.batch_finals([folded5_ref] * 3, [good, bad, good],
                                [1500.0, 1565.0, 1630.0])


@pytest.mark.parametrize("shape", [3, (2, 3)], ids=["system", "batch"])
def test_step_budget_ends_a_fast_oscillation(shape):
    # y' = i 1e6 y over [0, 1] needs about 1e6 steps; the solve stops at
    # MAX_STEPS trial steps instead, for one system and for a batch
    y0 = np.ones(shape, dtype=complex)
    with pytest.raises(IntegrationError, match="step budget"):
        dop853.solve(lambda t, y: 1e6j * y, 0.0, 1.0, y0, 1e-10, 1e-12)


def test_chunks_keep_groups_whole(monkeypatch):
    monkeypatch.setattr(propagator, "BATCH_SIZE", 4)
    groups = ["a", "b", "a", "c", "c", "c"] + ["d"] * 6
    # a and b share a solve; c does not fit beside them; d is larger than
    # one solve and is cut, its remainder opening the next solve
    assert list(propagator._chunks(groups)) == [
        [0, 2, 1], [3, 4, 5], [6, 7, 8, 9], [10, 11]]
    # without groups, members are cut in order
    assert list(propagator._chunks(range(6))) == [[0, 1, 2, 3], [4, 5]]
