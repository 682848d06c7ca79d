import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sapsim import (ArrayLayout, CalibrationError, CouplingModel,
                    GeometryError, GeometrySpec, IntegrationError, Kind,
                    StateVector, WaveguidePath, adiabaticity_margin,
                    build_folded5, build_layout, calibrated_model, dark_state,
                    eigensystem, hamiltonian_at, loss_corrected_transfer,
                    propagate, split_report, unit_state)
from sapsim.analysis import DEGENERACY_GAP

from conftest import (HALF_LENGTH, KAPPA_REF, LAM0, SEPARATION, TARGET_RATIO,
                      WIDTH)


def h3(k12, k23, delta=0.0):
    return np.array([[0.0, k12, 0.0], [k12, delta, k23], [0.0, k23, 0.0]])


def h5(k12, k23, delta=0.0):
    H = np.zeros((5, 5))
    H[0, 1] = H[1, 0] = k12
    H[1, 2] = H[2, 1] = k23
    H[2, 3] = H[3, 2] = k23
    H[3, 4] = H[4, 3] = k12
    H[1, 1] = H[3, 3] = delta
    return H


class TestDarkState:
    def test_equal_coupling_closed_form_3(self):
        v = dark_state(h3(1.0, 1.0))
        assert np.allclose(v, [1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)],
                           atol=1e-12)

    def test_equal_coupling_closed_form_5(self):
        v = dark_state(h5(1.0, 1.0))
        expected = np.array([-1.0, 0.0, 1.0, 0.0, -1.0]) / math.sqrt(3)
        assert np.allclose(v, expected, atol=1e-12)

    def test_general_closed_form(self):
        v = dark_state(h3(0.3, 0.8, delta=2.5))
        norm = math.hypot(0.3, 0.8)
        assert np.allclose(v, [0.8 / norm, 0.0, -0.3 / norm], atol=1e-12)

    def test_strong_outer_coupling_limit_5(self):
        # dominant k23 pushes the supermode onto the symmetric outer pair
        v = dark_state(h5(1e-8, 1.0))
        assert abs(v[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        assert abs(v[4]) == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        assert v[0] == pytest.approx(v[4], abs=1e-15)
        assert v[2] >= 0.0

    def test_sign_convention(self):
        assert dark_state(h3(0.5, 2.0))[0] > 0
        assert dark_state(h5(0.5, 2.0))[2] > 0

    def test_null_vector_random_draws(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            k12, k23 = rng.uniform(0.0, 10.0, size=2)
            if k12 == 0.0 and k23 == 0.0:
                k12 = 1.0
            delta = rng.uniform(-10.0, 10.0)
            for H in (h3(k12, k23, delta), h5(k12, k23, delta)):
                v = dark_state(H)
                assert np.linalg.norm(H @ v) <= 1e-10
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_inclined_components_exactly_zero(self):
        v3 = dark_state(h3(0.7, 0.2, delta=5.0))
        v5 = dark_state(h5(0.7, 0.2, delta=5.0))
        assert v3[1] == 0.0
        assert v5[1] == 0.0 and v5[3] == 0.0

    def test_detuning_does_not_move_dark_state(self):
        assert np.array_equal(dark_state(h5(0.4, 1.2, 0.0)),
                              dark_state(h5(0.4, 1.2, 37.0)))

    def test_zero_couplings_rejected(self):
        with pytest.raises(ValueError):
            dark_state(h3(0.0, 0.0))

    def test_non_mirror_pattern_rejected(self):
        H = h5(0.5, 1.0)
        H[3, 4] = H[4, 3] = 0.9
        with pytest.raises(ValueError):
            dark_state(H)

    def test_null_vector_at_the_reference_input_facet(self, folded5_ref,
                                                      model_ref):
        H = hamiltonian_at(folded5_ref, model_ref, 0.0, LAM0).matrix
        v = dark_state(H)
        assert np.linalg.norm(H @ v) <= 1e-10
        # input facet: supermode concentrated on the central guide
        assert v[2] ** 2 == pytest.approx(1.0 / (1.0 + 2 * 0.15 ** 2), rel=1e-9)


class TestEigenSystem:
    def test_three_guide_closed_form(self):
        w, _ = eigensystem(h3(1.3, 1.3))
        expected = np.array([-1.3 * math.sqrt(2), 0.0, 1.3 * math.sqrt(2)])
        assert np.allclose(w, expected, atol=1e-12)

    def test_five_guide_closed_form_and_charpoly(self):
        k = 0.9
        H = h5(k, k)
        w, _ = eigensystem(H)
        expected = k * np.array([-math.sqrt(3), -1.0, 0.0, 1.0, math.sqrt(3)])
        assert np.allclose(w, expected, atol=1e-12)
        # independent route: roots of the characteristic polynomial
        roots = np.sort(np.roots(np.poly(H)).real)
        assert np.allclose(w, roots, atol=1e-8)

    def test_trace_identity(self):
        delta = 0.7
        assert np.sum(eigensystem(h3(0.3, 1.1, delta))[0]) \
            == pytest.approx(delta, abs=1e-10)
        assert np.sum(eigensystem(h5(0.3, 1.1, delta))[0]) \
            == pytest.approx(2 * delta, abs=1e-10)

    def test_ascending_orthonormal_reconstruction(self, folded5_ref, model_ref):
        H = hamiltonian_at(folded5_ref, model_ref, 2345.0, LAM0).matrix
        w, V = eigensystem(H)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(V.T @ V - np.eye(5))) <= 1e-10
        rebuilt = V @ np.diag(w) @ V.T
        assert np.max(np.abs(rebuilt - H)) <= 1e-10


class TestAdiabaticity:
    def test_zero_angle_stationary(self):
        lay = build_folded5(HALF_LENGTH, SEPARATION, 0.0, WIDTH)
        ref = build_folded5(HALF_LENGTH, SEPARATION, 0.03, WIDTH)
        model = calibrated_model(ref, TARGET_RATIO, KAPPA_REF, LAM0)
        profile = adiabaticity_margin(lay, model, LAM0, 101)
        assert np.all(profile.values == 0.0)
        assert profile.flagged == ()

    def test_reference_margin_small_and_unflagged(self, folded5_ref, model_ref):
        profile = adiabaticity_margin(folded5_ref, model_ref, LAM0, 801)
        assert profile.flagged == ()
        assert profile.max_value < 0.25
        # regression fixture from the shipped operating point
        assert profile.max_value == pytest.approx(0.19136, abs=2e-4)

    def test_length_doubling_halves_margin(self, folded5_ref, model_ref):
        base = adiabaticity_margin(folded5_ref, model_ref, LAM0, 801).max_value
        doubled_layout = build_layout(folded5_ref.spec.rescaled(2.0))
        doubled = adiabaticity_margin(doubled_layout, model_ref, LAM0,
                                      801).max_value
        assert doubled / base == pytest.approx(0.5, rel=0.10)

    def test_sample_count_validation(self, folded5_ref, model_ref):
        with pytest.raises(ValueError):
            adiabaticity_margin(folded5_ref, model_ref, LAM0, 1)


def dark_rate(layout, model, lam, z, H):
    """d psi_dark/dz (1/mm) at z, for H = hamiltonian_at(..., z, ...).matrix.

    Each coupling k = kappa_ref exp(-(d - d_ref) / delta(lam)) of guides
    d = |x_{i+1} - x_i| apart changes at dk/dz = -k (dd/dz) / delta(lam),
    and the unit vector psi = u / |u| of the unnormalized dark vector u at
    d psi/dz = (du - psi (psi . du)) / |u|."""
    k = np.diagonal(H, offset=1)
    x0 = np.array([p.x0 for p in layout.paths])
    slope = np.array([p.slope for p in layout.paths])
    gap_slope = np.diff(slope)
    dd_dz = np.sign(np.diff(x0) + gap_slope * z) * gap_slope * 1000.0
    dk = -k * dd_dz / model.decay_length(lam)
    if layout.n_guides == 3:
        u, du = (np.array([v[1], 0.0, -v[0]]) for v in (k, dk))
    else:
        u, du = (np.array([-v[1], 0.0, v[0], 0.0, -v[1]]) for v in (k, dk))
    norm = np.linalg.norm(u)
    psi = u / norm
    return (du - psi * (psi @ du)) / norm


def per_sample_margin(layout, model, lam, n_samples):
    """adiabaticity_margin evaluated one sample at a time from the public
    hamiltonian_at / eigensystem / dark_state and the closed-form dark
    rate: the reference for the closed-form supermodes. Returns the
    values, the flagged samples, numpy's eigvalsh of each sample, the
    dark states, and max |H| of each sample."""
    zs = np.linspace(0.0, layout.z_end_um, n_samples)
    hams = [hamiltonian_at(layout, model, z, lam).matrix for z in zs]
    darks = np.array([dark_state(h) for h in hams])
    values, flagged = np.zeros(n_samples), []
    n = layout.n_guides
    for i, (z, h) in enumerate(zip(zs, hams)):
        w, V = eigensystem(h)
        dpsi = dark_rate(layout, model, lam, z, h)
        dark = int(np.argmax(np.abs(V.T @ darks[i])))
        gaps = [abs(w[k] - w[dark]) for k in range(n) if k != dark]
        if min(gaps) < DEGENERACY_GAP:
            flagged.append(i)
            values[i] = np.inf
            continue
        values[i] = max(abs(float(V[:, k] @ dpsi)) / abs(w[k] - w[dark])
                        for k in range(n) if k != dark)
    return (values, tuple(flagged),
            np.array([np.linalg.eigvalsh(h) for h in hams]), darks,
            np.array([np.max(np.abs(h)) for h in hams]))


BROKEN_MIRROR = ArrayLayout(
    tuple(WaveguidePath(x, 0.0, i + 1)
          for i, x in enumerate((0.0, 9.0, 20.0, 29.0, 44.0))),
    1000.0, 6.0, Kind.FOLDED5)


@st.composite
def designs(draw):
    """A layout of the default design box, any kind, and its calibrated
    model with a detuning of either sign."""
    kind = draw(st.sampled_from(list(Kind)))
    spec = GeometrySpec(kind, draw(st.floats(3750.0, 11250.0)),
                        draw(st.floats(11.0, 33.0)),
                        draw(st.floats(0.015, 0.045)), WIDTH,
                        draw(st.floats(0.5, 2.0)))
    try:
        layout = build_layout(spec)
        model = calibrated_model(layout, draw(st.floats(0.05, 0.5)),
                                 draw(st.floats(0.3, 3.0)), LAM0,
                                 detuning=draw(st.floats(-1.0, 1.0)))
    except (GeometryError, CalibrationError):
        assume(False)
    return layout, model


def _straight_folded5(detuning):
    return (build_folded5(HALF_LENGTH, SEPARATION, 0.0, WIDTH),
            CouplingModel(kappa_ref=0.7, d_ref=11.0, delta_decay=4.14,
                          lambda0=LAM0, detuning=detuning))


def _reference(kind, detuning=0.0, kappa_ref=0.7, ratio=TARGET_RATIO):
    layout = build_layout(GeometrySpec(kind, HALF_LENGTH, SEPARATION, 0.03,
                                       WIDTH))
    return layout, calibrated_model(layout, ratio, kappa_ref, LAM0,
                                    detuning=detuning)


class TestBatchedMargin:
    @given(
        kind=st.sampled_from([Kind.SAP3, Kind.FSAP3, Kind.FOLDED5]),
        half_length=st.floats(2000.0, 12000.0),
        separation=st.floats(14.0, 34.0),
        angle=st.one_of(st.just(0.0), st.floats(0.005, 0.05)),
        cut=st.floats(0.5, 2.0),
        kappa_ref=st.floats(0.1, 3.0),
        detuning=st.floats(-1.0, 1.0),
        lam=st.floats(1500.0, 1630.0),
        n_samples=st.integers(2, 120),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sample_reference(self, kind, half_length, separation,
                                          angle, cut, kappa_ref, detuning,
                                          lam, n_samples):
        # the closed-form supermodes against numpy's eigh of each sample
        # (measured spread over 473 drawn systems: 2.5e-14 relative in the
        # values, 2.5e-15 max|H| in the eigenvalues)
        try:
            layout = build_layout(GeometrySpec(kind, half_length, separation,
                                               angle, WIDTH, cut))
        except GeometryError:
            assume(False)
        model = CouplingModel(kappa_ref=kappa_ref, d_ref=10.0,
                              delta_decay=4.14, lambda0=LAM0,
                              detuning=detuning)
        values, flagged, eigenvalues, darks, scales = per_sample_margin(
            layout, model, lam, n_samples)
        profile = adiabaticity_margin(layout, model, lam, n_samples)
        assert profile.flagged == flagged
        finite = np.isfinite(values)
        assert np.array_equal(np.isfinite(profile.values), finite)
        assert np.all(np.abs(profile.values[finite] - values[finite])
                      <= 1e-9 * values[finite])
        if angle == 0.0:
            assert np.all(profile.values == 0.0)
        assert np.all(np.abs(profile.eigenvalues - eigenvalues)
                      <= 1e-12 * scales[:, None])
        assert np.array_equal(profile.dark_states, darks)
        inclined = [label - 1 for label in layout.inclined_labels]
        assert np.all(profile.dark_states[:, inclined] == 0.0)

    @example(design=_straight_folded5(detuning=0.3), lam=LAM0)
    @example(design=_reference(Kind.SAP3, detuning=1e300), lam=LAM0)
    @example(design=_reference(Kind.FOLDED5, detuning=-1e300), lam=1600.0)
    @example(design=_reference(Kind.FSAP3, kappa_ref=0.0), lam=LAM0)
    # k12 falls below 1e-12 near the end: only the mirror-odd pair +-k12
    # comes that close to the dark eigenvalue
    @example(design=_reference(Kind.FOLDED5, ratio=1e-13), lam=LAM0)
    @example(design=(BROKEN_MIRROR, CouplingModel(kappa_ref=0.7, d_ref=10.0,
                                                  delta_decay=4.14,
                                                  lambda0=LAM0)), lam=LAM0)
    @given(design=designs(), lam=st.floats(1500.0, 1630.0))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_peak_within_dense_reference(self, design, lam):
        # the margin at the design and darkstate sample counts against the
        # closed form at 100001 samples (worst measured over 300 drawn
        # designs: 1.7e-7 relative at 201 samples, 4.2e-9 at 512)
        layout, model = design
        if model.kappa_ref == 0.0:
            with pytest.raises(IntegrationError,
                               match="all couplings are zero"):
                adiabaticity_margin(layout, model, lam, 201)
            return
        if layout is BROKEN_MIRROR:
            with pytest.raises(GeometryError, match="mirror"):
                adiabaticity_margin(layout, model, lam, 201)
            return
        dense = adiabaticity_margin(layout, model, lam, 100001).max_value
        for n_samples in (201, 512):
            profile = adiabaticity_margin(layout, model, lam, n_samples)
            assert np.all(np.isfinite(profile.eigenvalues))
            flagged = list(profile.flagged)
            others = np.delete(profile.eigenvalues, layout.n_guides // 2,
                               axis=1)
            assert flagged == list(np.flatnonzero(
                np.min(np.abs(others), axis=1) < DEGENERACY_GAP))
            assert np.all(profile.values[flagged] == np.inf)
            assert np.all(np.isfinite(np.delete(profile.values, flagged)))
            if abs(model.detuning) == 1e300:
                # E- = -W^2 / 1e300 sits next to the dark eigenvalue 0
                assert profile.flagged == tuple(range(n_samples))
            if all(p.slope == 0.0 for p in layout.paths):
                assert np.all(profile.values == 0.0)
            assert profile.max_value == pytest.approx(dense, rel=1e-6)

    def test_zero_coupling_raises_like_dark_state(self, folded5_ref):
        model = calibrated_model(folded5_ref, TARGET_RATIO, 0.0, LAM0)
        with pytest.raises(ValueError, match="all couplings are zero"):
            per_sample_margin(folded5_ref, model, LAM0, 11)
        with pytest.raises(IntegrationError,
                           match="all couplings are zero at lam = 1550.0 nm"):
            adiabaticity_margin(folded5_ref, model, LAM0, 11)

    def test_broken_mirror_raises_like_dark_state(self):
        # dark_state checks its matrix; the margin checks the layout once,
        # from its gaps (ArrayLayout.lambda_block), before any sample
        xs = (0.0, 9.0, 20.0, 29.0, 44.0)
        layout = ArrayLayout(tuple(WaveguidePath(x, 0.0, i + 1)
                                   for i, x in enumerate(xs)),
                             1000.0, 6.0, Kind.FOLDED5)
        model = CouplingModel(kappa_ref=0.7, d_ref=10.0, delta_decay=4.14,
                              lambda0=LAM0)
        with pytest.raises(ValueError, match="mirror"):
            per_sample_margin(layout, model, LAM0, 5)
        with pytest.raises(GeometryError, match="mirror symmetric"):
            adiabaticity_margin(layout, model, LAM0, 5)


class TestSplitReport:
    def test_db_definition(self):
        # central fraction 0.0316 is the -15 dB point
        amps = np.sqrt(np.array([0.4842, 0.0, 0.0316, 0.0, 0.4842]))
        state = StateVector(amps.astype(complex), 15000.0, LAM0)
        report = split_report(state, Kind.FOLDED5)
        assert report.crosstalk_db == pytest.approx(10 * math.log10(0.0316),
                                                    abs=1e-12)
        assert report.crosstalk_db == pytest.approx(-15.0, abs=0.01)

    def test_fractions_normalized(self):
        amps = np.array([3.0, 4.0j, 0.0], dtype=complex)
        report = split_report(StateVector(amps, 0.0, LAM0), Kind.SAP3)
        assert report.fractions.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((report.fractions >= 0) & (report.fractions <= 1))
        assert report.fractions[0] == pytest.approx(9 / 25)

    def test_single_guide_floor(self):
        report = split_report(unit_state(3, 1, LAM0), Kind.SAP3)
        assert np.allclose(report.fractions, [1.0, 0.0, 0.0])
        assert report.crosstalk_db == -120.0

    def test_ideal_folded_output(self):
        amps = np.array([-1.0, 0.0, 0.15, 0.0, -1.0], dtype=complex)
        report = split_report(StateVector(amps, 15000.0, LAM0), Kind.FOLDED5)
        assert np.allclose(report.pair_fractions, [0.5, 0.5], atol=1e-12)
        assert report.phase_rel_rad == 0.0

    def test_ideal_fractional_output_phase_pi(self):
        amps = np.array([1.0, 0.0, -1.0], dtype=complex) / math.sqrt(2)
        report = split_report(StateVector(amps, 7500.0, LAM0), Kind.FSAP3)
        assert report.phase_rel_rad == pytest.approx(math.pi)
        assert report.phase_rel_rad > 0  # wrapped to (-pi, pi]

    def test_zero_power_rejected(self):
        state = StateVector(np.zeros(3, dtype=complex), 0.0, LAM0)
        with pytest.raises(ValueError):
            split_report(state, Kind.SAP3)

    @given(
        powers=st.lists(st.floats(1e-6, 1.0), min_size=5, max_size=5),
        phases=st.lists(st.floats(-math.pi, math.pi), min_size=5, max_size=5),
        global_phase=st.floats(-math.pi, math.pi),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariance_under_global_phase_and_scale(self, powers, phases,
                                                     global_phase, scale):
        amps = np.sqrt(powers) * np.exp(1j * np.array(phases))
        base = split_report(StateVector(amps, 0.0, LAM0), Kind.FOLDED5)
        moved = split_report(
            StateVector(amps * scale * np.exp(1j * global_phase), 0.0, LAM0),
            Kind.FOLDED5)
        assert np.allclose(base.fractions, moved.fractions, atol=1e-12)
        assert base.crosstalk_db == pytest.approx(moved.crosstalk_db, abs=1e-9)
        assert math.isclose(
            math.cos(base.phase_rel_rad - moved.phase_rel_rad), 1.0,
            abs_tol=1e-9)


class TestLossCorrection:
    def test_identity_when_lossless(self):
        assert loss_corrected_transfer([0.6, 0.38], 1.5, 0.0, 1.0, 1.0) \
            == pytest.approx(0.98, abs=1e-12)

    def test_reference_bookkeeping(self):
        attenuation = 10 ** (-0.4 * 1.5 / 10) * 0.5 * 0.84
        measured = [0.494 * attenuation, 0.494 * attenuation]
        corrected = loss_corrected_transfer(measured, 1.5, 0.4, 0.5, 0.84)
        assert corrected == pytest.approx(0.988, abs=1e-12)

    def test_doubling_length_scales_correction(self):
        base = loss_corrected_transfer([0.5], 1.5, 0.4, 0.5, 0.84)
        double = loss_corrected_transfer([0.5], 3.0, 0.4, 0.5, 0.84)
        assert double / base == pytest.approx(10 ** 0.06, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(loss_db_per_cm=-0.1), dict(coupling_eff=0.0),
        dict(coupling_eff=1.2), dict(facet_transmission=0.0),
    ])
    def test_validation(self, kwargs):
        base = dict(length_cm=1.5, loss_db_per_cm=0.4, coupling_eff=0.5,
                    facet_transmission=0.84)
        base.update(kwargs)
        with pytest.raises(ValueError):
            loss_corrected_transfer([0.5], **base)


class TestAdiabaticLimitProperty:
    def test_dark_input_deficit_shrinks_on_doubling_ladder(self, folded5_ref,
                                                           model_ref):
        # launching the exact facet supermode isolates the adiabatic-theorem
        # loss from the facet-mismatch contribution of a bare guide input
        deficits = []
        for factor in (1, 2, 4, 8):
            lay = build_layout(folded5_ref.spec.rescaled(factor))
            h_in = hamiltonian_at(lay, model_ref, 0.0, LAM0).matrix
            h_out = hamiltonian_at(lay, model_ref, lay.z_end_um, LAM0).matrix
            start = StateVector(dark_state(h_in).astype(complex), 0.0, LAM0)
            traj = propagate(lay, model_ref, LAM0, start)
            overlap = abs(np.vdot(dark_state(h_out),
                                  traj.final.amplitudes)) ** 2
            deficits.append(1.0 - overlap)
        assert all(b < a for a, b in zip(deficits, deficits[1:]))
        assert deficits[-1] < 1e-3
