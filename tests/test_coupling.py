import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapsim import (CalibrationError, CouplingModel, IntegrationError,
                    build_sap3, calibrate_decay, calibrate_strength,
                    calibrated_model, dop853, nominal_input, propagate,
                    propagator, split_report)
from sapsim.coupling import CALIBRATION_MAX_POINTS

from conftest import (D_NEAR, DELTA0, HALF_LENGTH, LAM0, LATERAL_TRAVEL,
                      SEPARATION, TARGET_RATIO, WIDTH)

# Regression fixture: first -20 dB pass of the strength search on the
# reference splitter with bounds [0.05, 20] /mm and 2% resolution.
KAPPA_STAR_M20 = 0.16083484256693206

MODEL = CouplingModel(kappa_ref=1.3, d_ref=7.0, delta_decay=4.0, lambda0=1550.0)


class TestKappaForm:
    def test_reference_point(self):
        assert MODEL.kappa(7.0, 1550.0) == pytest.approx(1.3, rel=1e-15)

    def test_evanescent_limit(self):
        assert MODEL.kappa(7.0 + 400 * 4.0, 1550.0) < 1e-150
        assert MODEL.kappa(7.0 + 2000 * 4.0, 1550.0) == 0.0

    def test_dispersion_free_when_rho_zero(self):
        m = CouplingModel(kappa_ref=1.0, d_ref=7.0, delta_decay=4.0,
                          lambda0=1550.0, rho=0.0)
        assert m.kappa(12.0, 1500.0) == m.kappa(12.0, 1630.0)

    def test_longer_wavelength_couples_stronger(self):
        # rho > 0 and d > d_ref: slower decay at longer wavelengths
        assert MODEL.kappa(12.0, 1630.0) > MODEL.kappa(12.0, 1500.0)

    def test_calibrated_ratio_value(self, folded5_ref, model_ref):
        from conftest import D_FAR
        ratio = model_ref.kappa(D_FAR, LAM0) / model_ref.kappa(D_NEAR, LAM0)
        assert ratio == pytest.approx(
            math.exp(-LATERAL_TRAVEL / DELTA0), rel=1e-9)
        assert ratio == pytest.approx(0.150, abs=1e-9)

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            MODEL.kappa(-1.0, 1550.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CouplingModel(kappa_ref=-1.0, d_ref=7.0, delta_decay=4.0,
                          lambda0=1550.0)
        with pytest.raises(ValueError):
            CouplingModel(kappa_ref=1.0, d_ref=7.0, delta_decay=0.0,
                          lambda0=1550.0)


@given(d1=st.floats(0.0, 60.0), d2=st.floats(0.0, 60.0),
       lam=st.floats(1400.0, 1700.0), rho=st.floats(0.0, 2.0))
@settings(max_examples=120, deadline=None)
def test_ratio_identity_independent_of_strength(d1, d2, lam, rho):
    m1 = CouplingModel(kappa_ref=0.8, d_ref=7.0, delta_decay=4.1,
                       lambda0=1550.0, rho=rho)
    m2 = CouplingModel(kappa_ref=3.7, d_ref=7.0, delta_decay=4.1,
                       lambda0=1550.0, rho=rho)
    expected = math.exp((d2 - d1) / m1.decay_length(lam))
    assert m1.kappa(d1, lam) / m1.kappa(d2, lam) == pytest.approx(
        expected, rel=1e-12)
    assert m2.kappa(d1, lam) / m2.kappa(d2, lam) == pytest.approx(
        expected, rel=1e-12)


@given(d1=st.floats(0.0, 50.0), gap=st.floats(1e-6, 30.0))
@settings(max_examples=120, deadline=None)
def test_strictly_decreasing_with_separation(d1, gap):
    assert MODEL.kappa(d1, 1550.0) > MODEL.kappa(d1 + gap, 1550.0)


class TestCalibrateDecay:
    def test_reference_value(self, folded5_ref):
        d0 = calibrate_decay(folded5_ref, TARGET_RATIO, LAM0)
        assert d0 == pytest.approx(DELTA0, rel=1e-12)
        assert d0 == pytest.approx(4.140, abs=5e-4)

    def test_same_for_three_guide_device(self, sap3_ref, folded5_ref):
        assert calibrate_decay(sap3_ref, TARGET_RATIO, LAM0) == pytest.approx(
            calibrate_decay(folded5_ref, TARGET_RATIO, LAM0), rel=1e-12)

    def test_roundtrip_reproduces_ratio(self, folded5_ref):
        model = calibrated_model(folded5_ref, TARGET_RATIO, 1.0, LAM0)
        weak = model.kappa(folded5_ref.separation(2, 3, 0.0), LAM0)
        strong = model.kappa(folded5_ref.separation(1, 2, 0.0), LAM0)
        assert weak / strong == pytest.approx(TARGET_RATIO, rel=1e-12)

    def test_ratio_to_one_needs_no_decay(self, folded5_ref):
        assert calibrate_decay(folded5_ref, 1 - 1e-12, LAM0) > 1e10
        assert calibrate_decay(folded5_ref, 0.99, LAM0) \
            > calibrate_decay(folded5_ref, 0.5, LAM0)

    def test_degenerate_geometry_rejected(self):
        flat = build_sap3(HALF_LENGTH, SEPARATION, 0.0, WIDTH)
        with pytest.raises(CalibrationError):
            calibrate_decay(flat, TARGET_RATIO, LAM0)

    # 5e-324: 1 / ratio overflows, so the closed form would give 0 um
    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.5, 5e-324])
    def test_ratio_domain(self, folded5_ref, ratio):
        with pytest.raises(CalibrationError):
            calibrate_decay(folded5_ref, ratio, LAM0)

    def test_d_ref_pinned_to_near_facet_separation(self, model_ref):
        assert model_ref.d_ref == pytest.approx(D_NEAR, rel=1e-12)


@pytest.fixture(scope="module")
def base(folded5_ref):
    return calibrated_model(folded5_ref, TARGET_RATIO, 1.0, LAM0)


class TestCalibrateStrength:
    def test_regression_value_and_contract(self, folded5_ref, base):
        star = calibrate_strength(folded5_ref, base, LAM0, -20.0)
        assert star == pytest.approx(KAPPA_STAR_M20, rel=1e-9)
        model = calibrated_model(folded5_ref, TARGET_RATIO, star, LAM0)
        traj = propagate(folded5_ref, model, LAM0,
                         nominal_input(folded5_ref, LAM0))
        assert split_report(traj.final, folded5_ref.kind).crosstalk_db <= -20.0

    def test_zero_target_returns_grid_minimum(self, folded5_ref, base,
                                              fast_opts):
        star = calibrate_strength(folded5_ref, base, LAM0, 0.0,
                                  kappa_min=0.07, opts=fast_opts)
        assert star == 0.07

    def test_unreachable_target_raises_with_curve(self, folded5_ref, base,
                                                  fast_opts):
        with pytest.raises(CalibrationError) as err:
            calibrate_strength(folded5_ref, base, LAM0, -90.0,
                               kappa_min=0.05, kappa_max=0.07, opts=fast_opts)
        assert err.value.kappa_grid is not None
        assert len(err.value.kappa_grid) == len(err.value.crosstalk_db)
        assert len(err.value.kappa_grid) >= 2
        assert np.all(err.value.crosstalk_db > -90.0)

    def test_failure_past_the_first_pass_leaves_the_pass(self, folded5_ref,
                                                         base, monkeypatch):
        # the chunk's later, stronger points need more steps than this
        # budget allows (kappa_ref 1.0 takes 43 steps, 1.85 about 75); the
        # first point passes a 0 dB target, so the scan must stop there
        monkeypatch.setattr(dop853, "MAX_STEPS", 70)
        alone = []
        monkeypatch.setattr(propagator, "propagate",
                            lambda *args, **kw: alone.append(args[1])
                            or propagate(*args, **kw))
        assert calibrate_strength(folded5_ref, base, LAM0, 0.0,
                                  kappa_min=1.0) == 1.0
        # after the failed batch, only the passing point is solved again
        assert [m.kappa_ref for m in alone] == [1.0]
        with pytest.raises(IntegrationError, match="step budget"):
            calibrate_strength(folded5_ref, base, LAM0, 0.0, kappa_min=2.0)

    def test_default_search_solves_two_batches(self, folded5_ref, base,
                                               monkeypatch):
        # the -20 dB pass is near the 59th point: the search solves the
        # first two batches of points and none past them
        solves, batch_finals = [], propagator.batch_finals

        def recorded(layouts, models, lams, opts):
            solves.append(len(models))
            return batch_finals(layouts, models, lams, opts)

        monkeypatch.setattr(propagator, "batch_finals", recorded)
        star = calibrate_strength(folded5_ref, base, LAM0, -20.0)
        assert star == pytest.approx(KAPPA_STAR_M20, rel=1e-9)
        assert solves == [32, 32]

    def test_invalid_arguments(self, folded5_ref, base):
        with pytest.raises(CalibrationError):
            calibrate_strength(folded5_ref, base, LAM0, 1.0)
        with pytest.raises(CalibrationError):
            calibrate_strength(folded5_ref, base, LAM0, -20.0, kappa_min=2.0,
                               kappa_max=1.0)
        with pytest.raises(CalibrationError):
            calibrate_strength(folded5_ref, base, LAM0, -20.0, resolution=0.5)
        # grids whose points cannot grow
        for kwargs in ({"kappa_min": 5e-324}, {"resolution": 5e-324},
                       {"resolution": 1e-17}):
            with pytest.raises(CalibrationError, match="cannot grow"):
                calibrate_strength(folded5_ref, base, LAM0, 0.0, **kwargs)

    def test_grid_point_cap(self, folded5_ref, base, fast_opts):
        # a 0 dB target passes at the first point, so only the cap can fail
        cap = CALIBRATION_MAX_POINTS
        under = 0.05 * 1.02 ** (cap - 2)
        assert calibrate_strength(folded5_ref, base, LAM0, 0.0,
                                  kappa_max=under, opts=fast_opts) == 0.05
        for kwargs in ({"kappa_max": 0.05 * 1.02 ** cap},
                       {"resolution": 1e-9}):
            with pytest.raises(CalibrationError, match=f"more than {cap}"):
                calibrate_strength(folded5_ref, base, LAM0, 0.0, **kwargs)
