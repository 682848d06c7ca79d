import numpy as np
import pytest

from sapsim import (Kind, nominal_input, propagate, propagate_batch,
                    robustness_scan, split_report, sweep_wavelength,
                    wavelength_grid)

from conftest import BATCH_DA, KAPPA_REF, LAM0

# Regression fixtures: renormalized guide-3 share of the fractional device
# at cut fractions {0.9, 1.0, 1.1}, reference coupling, 1550 nm.
CUT_SCAN_P3 = (0.399152, 0.477359, 0.558195)


@pytest.fixture(scope="module")
def band_curve(folded5_ref, model_ref):
    return sweep_wavelength(folded5_ref, model_ref, 1500.0, 1630.0, 9)


class TestSweep:
    def test_grid(self):
        g = wavelength_grid(1500.0, 1630.0, 27)
        assert len(g) == 27
        assert g[0] == 1500.0 and g[-1] == 1630.0
        assert np.all(np.diff(g) > 0)

    def test_single_point_grid(self):
        assert list(wavelength_grid(1550.0, 1630.0, 1)) == [1550.0]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            wavelength_grid(1630.0, 1500.0, 5)
        with pytest.raises(ValueError):
            wavelength_grid(1500.0, 1630.0, 0)

    def test_single_point_matches_direct_propagation(self, folded5_ref,
                                                     model_ref):
        # a sweep of one point is a batch of one: the same device and
        # wavelength as the direct propagation, stepped in u = z / z_end
        curve = sweep_wavelength(folded5_ref, model_ref, 1540.0, 1631.0, 1)
        traj = propagate(folded5_ref, model_ref, 1540.0,
                         nominal_input(folded5_ref, 1540.0))
        direct = split_report(traj.final, Kind.FOLDED5)
        assert np.max(np.abs(curve.reports[0].fractions - direct.fractions)) \
            <= 2 * BATCH_DA

    def test_deterministic_repeat(self, folded5_ref, model_ref):
        a = sweep_wavelength(folded5_ref, model_ref, 1500.0, 1630.0, 5)
        b = sweep_wavelength(folded5_ref, model_ref, 1500.0, 1630.0, 5)
        for ra, rb in zip(a.reports, b.reports):
            assert np.array_equal(ra.fractions, rb.fractions)
            assert ra.crosstalk_db == rb.crosstalk_db
            assert ra.phase_rel_rad == rb.phase_rel_rad

    def test_shuffled_batch_reproduces_curve(self, folded5_ref, model_ref,
                                             band_curve):
        # the batch steps with the largest member norm, and every member's
        # arithmetic is element by element, so the members' order does not
        # move a bit
        order = [4, 0, 7, 2, 8, 1, 5, 3, 6]
        lams = band_curve.wavelengths_nm[order]
        finals = propagate_batch([folded5_ref] * 9, [model_ref] * 9, lams)
        for idx, final in zip(order, finals):
            report = split_report(final, Kind.FOLDED5)
            assert np.array_equal(report.fractions,
                                  band_curve.reports[idx].fractions)

    def test_mirror_symmetry_every_wavelength(self, band_curve):
        for r in band_curve.reports:
            assert r.fractions[0] == pytest.approx(r.fractions[4], abs=1e-9)

    def test_pair_fractions_ideal(self, band_curve):
        assert np.allclose(band_curve.summary.mean_pair_fractions, [0.5, 0.5],
                           atol=1e-9)

    def test_band_crosstalk_bound(self, band_curve):
        assert band_curve.summary.worst_crosstalk_db <= -15.0

    def test_summary_consistency(self, band_curve):
        fractions = np.array([r.fractions for r in band_curve.reports])
        assert np.allclose(band_curve.summary.mean_fractions,
                           fractions.mean(axis=0), atol=1e-15)
        assert np.allclose(band_curve.summary.std_fractions,
                           fractions.std(axis=0), atol=1e-15)
        assert band_curve.summary.max_phase_dev_rad <= 1e-9


class TestRobustnessScan:
    def test_detuning_zero_entry_reproduces_nominal(self, folded5_ref,
                                                    model_ref, fast_opts):
        # both are a batch of one nominal system at LAM0
        entries = robustness_scan(folded5_ref, model_ref, "detuning",
                                  [0.0], LAM0, opts=fast_opts)
        nominal = sweep_wavelength(folded5_ref, model_ref, LAM0, LAM0, 1,
                                   opts=fast_opts).reports[0]
        assert np.array_equal(entries[0].report.fractions, nominal.fractions)

    def test_kappa_scaling_keeps_pair_split(self, folded5_ref, model_ref,
                                            fast_opts):
        values = [KAPPA_REF * f for f in (0.7, 1.0, 1.5)]
        entries = robustness_scan(folded5_ref, model_ref, "kappa_ref", values,
                                  LAM0, opts=fast_opts)
        for e in entries:
            assert e.valid
            assert np.allclose(e.report.pair_fractions, [0.5, 0.5], atol=0.01)

    def test_cut_fraction_walks_the_split(self, fsap3_ref, model_sap3):
        entries = robustness_scan(fsap3_ref, model_sap3, "cut_fraction",
                                  [0.9, 1.0, 1.1], LAM0)
        got = [e.report.pair_fractions[1] for e in entries]
        assert got == pytest.approx(CUT_SCAN_P3, abs=1e-4)
        assert got[0] < got[1] < got[2]

    def test_invalid_geometry_marked_not_fatal(self, folded5_ref, model_ref,
                                               fast_opts):
        entries = robustness_scan(folded5_ref, model_ref, "alpha",
                                  [0.03, 3.0], LAM0, opts=fast_opts)
        assert entries[0].valid
        assert not entries[1].valid
        assert entries[1].report is None
        assert entries[1].note != ""

    def test_rho_scan_runs(self, folded5_ref, model_ref, fast_opts):
        entries = robustness_scan(folded5_ref, model_ref, "rho", [0.0, 1.0],
                                  LAM0, opts=fast_opts)
        assert all(e.valid for e in entries)

    def test_unknown_parameter_rejected(self, folded5_ref, model_ref):
        with pytest.raises(ValueError):
            robustness_scan(folded5_ref, model_ref, "voltage", [1.0], LAM0)

    @pytest.mark.parametrize("fixture", ["sap3_ref", "folded5_ref"])
    def test_cut_fraction_scan_needs_a_cut_device(self, request, model_ref,
                                                  fixture):
        # sap3 and folded5 run their full length 2L whatever the cut, so a
        # scan would return one split marked valid at every value
        layout = request.getfixturevalue(fixture)
        with pytest.raises(ValueError,
                           match="^cut_fraction scans need an fsap3 layout$"):
            robustness_scan(layout, model_ref, "cut_fraction",
                            [0.5, 1.0, 1.5], LAM0)

    def test_geometry_scan_needs_build_parameters(self, model_ref, folded5_ref):
        from sapsim import ArrayLayout
        bare = ArrayLayout(folded5_ref.paths, folded5_ref.z_end_um,
                           folded5_ref.width_um, folded5_ref.kind)
        with pytest.raises(ValueError):
            robustness_scan(bare, model_ref, "alpha", [0.03], LAM0)
