import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapsim import (FarFieldPattern, Fringe, IntegrationError, classify_fringe,
                    facet_emitters, farfield_pattern, nominal_input, propagate,
                    unit_state)

D_OUT = 44.0          # output-pair distance of the reference splitter (um)


def two_emitters(phase: float, p1: float = 0.5, p2: float = 0.5,
                 lam: float = 1560.0, **kw):
    amps = np.array([math.sqrt(p1), math.sqrt(p2) * np.exp(1j * phase)])
    return farfield_pattern(amps, np.array([0.0, D_OUT]), lam, **kw)


class TestPattern:
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, math.pi])
    def test_equal_amplitude_contrast_closed_form(self, phase):
        pattern = two_emitters(phase)
        assert pattern.central_contrast == pytest.approx(
            math.cos(phase / 2) ** 2, abs=1e-12)

    def test_in_phase_center_is_global_max(self):
        pattern = two_emitters(0.0)
        mid = len(pattern.intensity) // 2
        assert pattern.intensity[mid] == 1.0

    def test_opposite_phase_center_dark(self):
        pattern = two_emitters(math.pi)
        mid = len(pattern.intensity) // 2
        assert pattern.intensity[mid] <= 1e-25

    def test_diced_device_contrast(self):
        # 40/60 split with opposite phases
        pattern = two_emitters(math.pi, 0.6, 0.4)
        expected = (math.sqrt(0.6) - math.sqrt(0.4)) ** 2 \
            / (math.sqrt(0.6) + math.sqrt(0.4)) ** 2
        assert pattern.central_contrast == pytest.approx(expected, rel=1e-9)
        assert pattern.central_contrast == pytest.approx(0.0102, abs=1e-4)
        assert classify_fringe(pattern) is Fringe.DARK_CENTER

    def test_normalization_max_exactly_one(self):
        for phase in (0.0, 1.0, math.pi):
            assert two_emitters(phase).intensity.max() == 1.0

    @pytest.mark.parametrize("lam,d", [(1500.0, 22.0), (1560.0, 44.0),
                                       (1630.0, 44.0), (1550.0, 22.0)])
    def test_fringe_spacing_matches_two_slit(self, lam, d):
        amps = np.array([1.0, 1.0 + 0j])
        n_points = 2001
        theta_max = 0.15
        pattern = farfield_pattern(amps, np.array([0.0, d]), lam,
                                   theta_max_rad=theta_max, n_points=n_points)
        step = 2 * theta_max / (n_points - 1)
        assert abs(pattern.fringe_spacing_rad - (lam / 1000.0) / d) <= step

    def test_mirror_on_amplitude_swap(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        pos = np.array([0.0, D_OUT])
        p1 = farfield_pattern(a, pos, 1560.0)
        p2 = farfield_pattern(a[::-1], pos, 1560.0)
        assert np.max(np.abs(p1.intensity - p2.intensity[::-1])) <= 1e-10

    @given(phase=st.floats(-math.pi, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_global_phase_invariance(self, phase):
        amps = np.array([0.8, 0.5j, -0.2], dtype=complex)
        pos = np.array([0.0, 22.0, 44.0])
        base = farfield_pattern(amps, pos, 1560.0)
        moved = farfield_pattern(amps * np.exp(1j * phase), pos, 1560.0)
        assert np.max(np.abs(base.intensity - moved.intensity)) <= 1e-9
        assert base.central_contrast == pytest.approx(moved.central_contrast,
                                                      abs=1e-12)

    def test_huge_waist_is_silent(self):
        # the envelope's exponent overflows to -inf: exp(-inf) = 0 off axis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pattern = two_emitters(0.0, mode_waist_um=1e300)
        assert pattern.intensity[len(pattern.intensity) // 2] == 1.0

    @pytest.mark.parametrize("kwargs,message", [
        # no grid angle on the axis, and the envelope is 0 at all others
        ({"mode_waist_um": 1e5, "n_points": 4}, "zero at every grid angle"),
        # the phases overflow
        ({"lam": 1e-304}, "not finite"),
        ({"lam": 5e-324}, "is 0 um in floating point"),
    ])
    def test_undefined_pattern_raises(self, kwargs, message):
        with pytest.raises(IntegrationError, match=message):
            two_emitters(0.0, **kwargs)

    def test_validation(self):
        with pytest.raises(ValueError):
            farfield_pattern(np.zeros(2, complex), np.array([0.0, 44.0]), 1560.0)
        with pytest.raises(ValueError):
            farfield_pattern(np.array([1.0 + 0j]), np.array([0.0]), 1560.0)
        with pytest.raises(ValueError):
            two_emitters(0.0, mode_waist_um=0.0)
        with pytest.raises(ValueError):
            two_emitters(0.0, n_points=2)


class TestClassification:
    @pytest.mark.parametrize("contrast,expected", [
        (1.0, Fringe.BRIGHT_CENTER), (0.91, Fringe.BRIGHT_CENTER),
        (0.9, Fringe.BRIGHT_CENTER), (0.5, Fringe.INTERMEDIATE),
        (0.11, Fringe.INTERMEDIATE), (0.1, Fringe.DARK_CENTER),
        (0.0, Fringe.DARK_CENTER),
    ])
    def test_thresholds(self, contrast, expected):
        pattern = FarFieldPattern(np.array([-0.1, 0.0, 0.1]),
                                  np.array([0.5, contrast, 0.5]),
                                  contrast, 0.035)
        assert classify_fringe(pattern) is expected


class TestFacetEmitters:
    def test_reference_splitter_two_emitters(self, folded5_ref, model_ref):
        traj = propagate(folded5_ref, model_ref, 1560.0,
                         nominal_input(folded5_ref, 1560.0))
        amps, pos = facet_emitters(traj.final, folded5_ref)
        assert list(pos) == [0.0, 2 * 22.0]
        assert len(amps) == 2

    def test_low_cutoff_adds_central_emitter(self, folded5_ref, model_ref):
        traj = propagate(folded5_ref, model_ref, 1560.0,
                         nominal_input(folded5_ref, 1560.0))
        amps, pos = facet_emitters(traj.final, folded5_ref,
                                   include_central_above=1e-4)
        assert list(pos) == [0.0, 22.0, 44.0]
        assert abs(amps[1]) ** 2 == pytest.approx(
            traj.final.powers()[2], rel=1e-12)

    def test_fractional_device_emitters(self, fsap3_ref, model_sap3):
        traj = propagate(fsap3_ref, model_sap3, 1560.0,
                         nominal_input(fsap3_ref, 1560.0))
        # the inclined guide keeps a few percent here, above the 5% cutoff
        amps, pos = facet_emitters(traj.final, fsap3_ref)
        assert len(pos) == 3
        assert pos[0] == 0.0 and pos[2] == 22.0
        assert 10.0 < pos[1] < 12.0


    def test_unsplit_output_raises(self, folded5_ref):
        # all light left in the central guide: one lit emitter, no fringes
        state = unit_state(5, 3, 1560.0, folded5_ref.z_end_um)
        for cutoff in (0.05, 1.0):
            with pytest.raises(IntegrationError, match="fewer than two "
                               "emitters carry light at lam = 1560.0 nm"):
                facet_emitters(state, folded5_ref, cutoff)


class TestEndToEndClassification:
    def test_folded_bright(self, folded5_ref, model_ref):
        traj = propagate(folded5_ref, model_ref, 1560.0,
                         nominal_input(folded5_ref, 1560.0))
        amps, pos = facet_emitters(traj.final, folded5_ref)
        pattern = farfield_pattern(amps, pos, 1560.0)
        assert classify_fringe(pattern) is Fringe.BRIGHT_CENTER

    def test_fractional_dark(self, fsap3_ref, model_sap3):
        traj = propagate(fsap3_ref, model_sap3, 1560.0,
                         nominal_input(fsap3_ref, 1560.0))
        amps, pos = facet_emitters(traj.final, fsap3_ref)
        pattern = farfield_pattern(amps, pos, 1560.0)
        assert classify_fringe(pattern) is Fringe.DARK_CENTER
