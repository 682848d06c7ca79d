import math

import numpy as np
import pytest

from sapsim import (ArrayLayout, CouplingModel, IntegrationError, Kind,
                    PropagationOptions, WaveguidePath, backpropagate_check,
                    build_folded5, build_layout, calibrated_model,
                    hamiltonian_at, nominal_input, propagate, propagate_oracle,
                    unit_state)
from sapsim.propagator import UM_PER_MM, _rhs

from conftest import (ANGLE, HALF_LENGTH, KAPPA_REF, LAM0, SEPARATION,
                      TARGET_RATIO, WIDTH)


def two_guide_reduction(kappa: float):
    """SAP3-shaped layout whose third guide is pushed far away, leaving a
    constant two-guide coupler with rate ``kappa`` (1/mm)."""
    paths = (WaveguidePath(0.0, 0.0, 1), WaveguidePath(10.0, 0.0, 2),
             WaveguidePath(400.0, 0.0, 3))
    layout = ArrayLayout(paths, math.pi * 1000.0, 6.0, Kind.SAP3)
    model = CouplingModel(kappa_ref=kappa, d_ref=10.0, delta_decay=4.14,
                          lambda0=LAM0, rho=0.0)
    return layout, model


class TestHamiltonianAt:
    def test_structure(self, folded5_ref):
        model = calibrated_model(folded5_ref, TARGET_RATIO, KAPPA_REF, LAM0,
                                 detuning=0.3)
        H = hamiltonian_at(folded5_ref, model, 3000.0, LAM0).matrix
        assert np.array_equal(H, H.T)
        for i in range(5):
            for j in range(5):
                if abs(i - j) > 1:
                    assert H[i, j] == 0.0
        assert list(np.diag(H)) == [0.0, 0.3, 0.0, 0.3, 0.0]

    def test_sap3_diagonal(self, sap3_ref):
        model = calibrated_model(sap3_ref, TARGET_RATIO, KAPPA_REF, LAM0,
                                 detuning=-0.2)
        H = hamiltonian_at(sap3_ref, model, 100.0, LAM0).matrix
        assert list(np.diag(H)) == [0.0, -0.2, 0.0]

    def test_equal_couplings_at_midpoint(self, folded5_ref, model_ref):
        H = hamiltonian_at(folded5_ref, model_ref, HALF_LENGTH, LAM0).matrix
        ks = [H[0, 1], H[1, 2], H[2, 3], H[3, 4]]
        assert max(ks) - min(ks) < 1e-12 * max(ks)

    def test_facet_ratio(self, folded5_ref, model_ref):
        H = hamiltonian_at(folded5_ref, model_ref, 0.0, LAM0).matrix
        assert H[0, 1] / H[1, 2] == pytest.approx(1.0 / 0.15, rel=1e-9)

    def test_mirror_couplings(self, folded5_ref, model_ref):
        H = hamiltonian_at(folded5_ref, model_ref, 4321.0, LAM0).matrix
        assert H[0, 1] == pytest.approx(H[3, 4], rel=1e-12)
        assert H[1, 2] == pytest.approx(H[2, 3], rel=1e-12)

    @pytest.mark.parametrize("layout_name", ["sap3_ref", "folded5_ref"])
    def test_couplings_match_pairwise_kappa(self, request, layout_name):
        # the vectorized assembly against the scalar CouplingModel.kappa of
        # each pair's separation, an independent route to the same formula
        layout = request.getfixturevalue(layout_name)
        model = calibrated_model(layout, TARGET_RATIO, KAPPA_REF, LAM0)
        for z in (0.0, 1234.5, HALF_LENGTH, layout.z_end_um):
            H = hamiltonian_at(layout, model, z, 1610.0).matrix
            for i in range(1, layout.n_guides):
                k = model.kappa(layout.separation(i, i + 1, z), 1610.0)
                assert H[i - 1, i] == pytest.approx(k, rel=1e-13)

    def test_zero_angle_z_independent(self):
        lay = build_folded5(HALF_LENGTH, SEPARATION, 0.0, WIDTH)
        model = calibrated_model(build_folded5(HALF_LENGTH, SEPARATION, ANGLE,
                                               WIDTH),
                                 TARGET_RATIO, KAPPA_REF, LAM0)
        H1 = hamiltonian_at(lay, model, 0.0, LAM0).matrix
        H2 = hamiltonian_at(lay, model, 9000.0, LAM0).matrix
        assert np.array_equal(H1, H2)


class TestRhs:
    @pytest.mark.parametrize("layout_name", ["sap3_ref", "fsap3_ref",
                                             "folded5_ref"])
    def test_matches_dense_hamiltonian(self, request, layout_name):
        # one system steps in mm (span 1 mm) with a 1-D state; a batch, of
        # one member here, in u = z / z_end (span z_end) with an (n, 1) state
        layout = request.getfixturevalue(layout_name)
        rng = np.random.default_rng(7)
        for lam, detuning in ((1500.0, 0.37), (1630.0, -1.2)):
            model = calibrated_model(layout, TARGET_RATIO, KAPPA_REF, LAM0,
                                     detuning=detuning)
            for batched in (False, True):
                span = layout.z_end_um if batched else UM_PER_MM
                rhs = _rhs([layout], [model], [lam],
                           np.array([[span]]) if batched else span)
                zs = rng.uniform(0.0, layout.z_end_um, 24)
                if batched:
                    # a batch's rhs binds to a stage state and evaluates
                    # the 12 points of a trial step at once, as a (12, 1, 1)
                    # array; rate(s, out) is the derivative at point s
                    stage = np.empty((layout.n_guides, 1), dtype=complex)
                    at, rate = rhs(stage)
                for i, z in enumerate(zs):
                    a = (rng.normal(size=layout.n_guides)
                         + 1j * rng.normal(size=layout.n_guides))
                    H = hamiltonian_at(layout, model, z, lam).matrix
                    expected = 1j * span / UM_PER_MM * (H @ a)
                    if batched:
                        if i % 12 == 0:
                            at((zs[i:i + 12] / span)[:, None, None])
                        stage[:, 0] = a
                        got = np.full_like(stage, np.nan)
                        rate(i % 12, got)
                    else:
                        got = rhs(z / span, a)
                    assert got.shape == (a[:, None] if batched else a).shape
                    assert np.max(np.abs(got.ravel() - expected)) \
                        <= 1e-14 * np.max(np.abs(expected))


class TestPropagate:
    def test_two_guide_rabi_flop(self):
        # |a2(z)|^2 = sin^2(kappa z); kappa = 0.5/mm, z = pi mm -> full flop
        layout, model = two_guide_reduction(0.5)
        traj = propagate(layout, model, LAM0, unit_state(3, 1, LAM0))
        powers = traj.final.powers()
        assert powers[1] == pytest.approx(1.0, abs=1e-8)
        assert powers[2] < 1e-30

    def test_rabi_profile_along_z(self):
        layout, model = two_guide_reduction(0.5)
        traj = propagate(layout, model, LAM0, unit_state(3, 1, LAM0),
                         n_samples=512)
        for z, a in zip(traj.z_um[:: 64], traj.amplitudes[:: 64]):
            expected = math.sin(0.5 * z / 1000.0) ** 2
            assert abs(a[1]) ** 2 == pytest.approx(expected, abs=1e-8)

    def test_zero_coupling_identity(self, folded5_ref):
        model = calibrated_model(folded5_ref, TARGET_RATIO, 0.0, LAM0)
        state = nominal_input(folded5_ref, LAM0)
        traj = propagate(folded5_ref, model, LAM0, state)
        assert np.array_equal(traj.final.amplitudes, state.amplitudes)

    def test_reference_split(self, final_ref):
        powers = final_ref.powers()
        assert powers[0] == pytest.approx(powers[4], abs=1e-9)
        assert powers[0] == pytest.approx(0.494, abs=0.01)
        assert powers[2] < 0.02

    def test_unitarity(self, folded5_ref, model_ref):
        traj = propagate(folded5_ref, model_ref, 1540.0, n_samples=512)
        assert traj.stats.max_norm_drift <= 1e-9

    def test_sampling_contract(self, folded5_ref, model_ref):
        state = nominal_input(folded5_ref, LAM0)
        traj = propagate(folded5_ref, model_ref, LAM0, state, n_samples=77)
        assert traj.amplitudes.shape == (77, 5)
        zs = traj.z_um
        assert zs.shape == (77,)
        assert zs[0] == 0.0
        assert zs[-1] == pytest.approx(folded5_ref.z_end_um)
        assert np.all(np.diff(zs) > 0)
        assert np.array_equal(traj.amplitudes[0], state.amplitudes)
        assert np.array_equal(traj.final.amplitudes, traj.amplitudes[-1])
        assert traj.final.z_um == zs[-1]

    def test_mirror_symmetry_along_z(self, folded5_ref, model_ref):
        traj = propagate(folded5_ref, model_ref, 1600.0, n_samples=512)
        for p in np.abs(traj.amplitudes):
            assert p[0] == pytest.approx(p[4], abs=1e-9)
            assert p[1] == pytest.approx(p[3], abs=1e-9)

    def test_output_phases_equal_by_symmetry(self, final_ref):
        a = final_ref.amplitudes
        assert np.angle(a[0]) == pytest.approx(np.angle(a[4]), abs=1e-9)

    def test_scaling_invariance(self, folded5_ref, model_ref):
        # same coupling profile shape: kappa x2 and length /2 commute
        squeezed = build_layout(folded5_ref.spec.rescaled(0.5))
        traj_a = propagate(folded5_ref, model_ref, LAM0,
                           nominal_input(folded5_ref, LAM0))
        traj_b = propagate(squeezed, model_ref.scaled(2.0), LAM0,
                           nominal_input(squeezed, LAM0))
        diff = np.max(np.abs(traj_a.final.amplitudes - traj_b.final.amplitudes))
        assert diff <= 1e-8

    @pytest.mark.parametrize("layout_name", ["sap3_ref", "fsap3_ref",
                                             "folded5_ref"])
    def test_endpoint_only_final_bit_identical(self, request, layout_name):
        layout = request.getfixturevalue(layout_name)
        model = calibrated_model(layout, TARGET_RATIO, KAPPA_REF, LAM0,
                                 detuning=0.2)
        for lam in (1500.0, 1565.0, 1630.0):
            state = nominal_input(layout, lam)
            dense = propagate(layout, model, lam, state, n_samples=512)
            ends = propagate(layout, model, lam, state)
            assert np.array_equal(ends.final.amplitudes,
                                  dense.final.amplitudes)
            assert list(ends.z_um) == [0.0, dense.z_um[-1]]
            assert ends.stats.n_steps == dense.stats.n_steps
            # no dense-output stages without interior samples
            assert ends.stats.n_rhs_evals < dense.stats.n_rhs_evals

    @pytest.mark.parametrize("field", ["kappa_ref", "detuning", "rho"])
    def test_non_finite_model_rejected(self, folded5_ref, model_ref, field):
        model = model_ref._replace(**{field: math.nan})
        with pytest.raises(IntegrationError):
            propagate(folded5_ref, model, LAM0, nominal_input(folded5_ref, LAM0))

    def test_non_finite_input_rejected(self, folded5_ref, model_ref):
        state = nominal_input(folded5_ref, LAM0)
        state.amplitudes[0] = complex(math.inf, 0.0)
        with pytest.raises(IntegrationError):
            propagate(folded5_ref, model_ref, LAM0, state)

    @pytest.mark.parametrize("kwargs", [
        dict(rtol=math.nan), dict(atol=math.nan), dict(rtol=math.inf),
        dict(rtol=0.0), dict(atol=-1e-12)])
    def test_invalid_options_rejected(self, kwargs):
        # a NaN tolerance would otherwise shrink the step forever
        with pytest.raises(ValueError):
            PropagationOptions(**kwargs)

    def test_fewer_than_two_samples_rejected(self, folded5_ref, model_ref):
        with pytest.raises(ValueError, match="n_samples"):
            propagate(folded5_ref, model_ref, LAM0, n_samples=1)

    def test_defaults_are_nominal_input_and_two_samples(self, folded5_ref,
                                                        model_ref):
        traj = propagate(folded5_ref, model_ref, LAM0)
        explicit = propagate(folded5_ref, model_ref, LAM0,
                             nominal_input(folded5_ref, LAM0),
                             PropagationOptions(), n_samples=2)
        assert list(traj.z_um) == [0.0, folded5_ref.z_end_um]
        assert np.array_equal(traj.amplitudes, explicit.amplitudes)
        assert traj.stats == explicit.stats

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integration_failure_reported(self, folded5_ref):
        model = calibrated_model(folded5_ref, TARGET_RATIO, 1e160, LAM0)
        with pytest.raises(IntegrationError):
            propagate(folded5_ref, model, LAM0,
                      nominal_input(folded5_ref, LAM0))


class TestOracle:
    def test_single_slice_constant_coupler(self):
        # alpha = 0: H constant, one midpoint slice is already exact
        layout, model = two_guide_reduction(0.5)
        final = propagate_oracle(layout, model, LAM0, unit_state(3, 1, LAM0), 1)
        assert final.powers()[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_adaptive_on_reference(self, folded5_ref, model_ref,
                                           final_ref):
        oracle = propagate_oracle(folded5_ref, model_ref, LAM0,
                                  nominal_input(folded5_ref, LAM0), 20000)
        assert np.max(np.abs(oracle.amplitudes - final_ref.amplitudes)) <= 1e-6

    def test_norm_preserving_exactly(self, folded5_ref, model_ref):
        out = propagate_oracle(folded5_ref, model_ref, LAM0,
                               nominal_input(folded5_ref, LAM0), 37)
        assert out.norm() == pytest.approx(1.0, abs=1e-13)

    def test_second_order_convergence(self, folded5_ref, model_ref, final_ref):
        ns = [250, 500, 1000, 2000]
        errs = []
        for n in ns:
            out = propagate_oracle(folded5_ref, model_ref, LAM0,
                                   nominal_input(folded5_ref, LAM0), n)
            errs.append(np.max(np.abs(out.amplitudes - final_ref.amplitudes)))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_slice_count_validation(self, folded5_ref, model_ref):
        with pytest.raises(ValueError):
            propagate_oracle(folded5_ref, model_ref, LAM0,
                             nominal_input(folded5_ref, LAM0), 0)


class TestBackpropagation:
    def test_reference_roundtrip(self, folded5_ref, model_ref):
        traj = propagate(folded5_ref, model_ref, LAM0,
                         nominal_input(folded5_ref, LAM0))
        assert backpropagate_check(traj) <= 1e-7

    def test_zero_coupling_exact(self, folded5_ref):
        model = calibrated_model(folded5_ref, TARGET_RATIO, 0.0, LAM0)
        traj = propagate(folded5_ref, model, LAM0,
                         nominal_input(folded5_ref, LAM0))
        assert backpropagate_check(traj) == 0.0

    def test_residual_grows_with_loosened_tolerances(self, folded5_ref,
                                                     model_ref):
        residuals = []
        for rtol in (1e-10, 1e-8, 1e-6):
            opts = PropagationOptions(rtol=rtol, atol=rtol * 1e-2)
            traj = propagate(folded5_ref, model_ref, LAM0,
                             nominal_input(folded5_ref, LAM0), opts)
            residuals.append(backpropagate_check(traj))
        assert residuals[0] < residuals[1] < residuals[2]
