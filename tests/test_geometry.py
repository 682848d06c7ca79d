import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sapsim import (ArrayLayout, CouplingModel, GeometryError, GeometrySpec,
                    Kind, WaveguidePath, adiabaticity_margin, build_folded5,
                    build_fsap3, build_layout, build_sap3, calibrated_model)
from sapsim.coupling import facet_separations
from sapsim.propagator import coupling_chain

from conftest import (ANGLE, D_FAR, D_NEAR, HALF_LENGTH, LATERAL_TRAVEL,
                      SEPARATION, TAN_ALPHA, WIDTH)

GRID = np.linspace(0.0, 2 * HALF_LENGTH, 1000)


class TestSap3:
    def test_equal_spacing_at_midpoint(self, sap3_ref):
        assert sap3_ref.separation(1, 2, HALF_LENGTH) == pytest.approx(11.0)
        assert sap3_ref.separation(2, 3, HALF_LENGTH) == pytest.approx(11.0)

    def test_counterintuitive_ordering(self, sap3_ref):
        # guide 2 starts near guide 3 and ends near guide 1
        assert sap3_ref.separation(2, 3, 0.0) < sap3_ref.separation(1, 2, 0.0)
        z_end = sap3_ref.z_end_um
        assert sap3_ref.separation(1, 2, z_end) < sap3_ref.separation(2, 3, z_end)

    def test_zero_angle_constant_spacing(self):
        lay = build_sap3(HALF_LENGTH, SEPARATION, 0.0, WIDTH)
        for z in (0.0, 3333.0, 2 * HALF_LENGTH):
            assert lay.separation(1, 2, z) == pytest.approx(11.0, abs=1e-12)
            assert lay.separation(2, 3, z) == pytest.approx(11.0, abs=1e-12)

    def test_lateral_travel_and_spacing_range(self, sap3_ref):
        x0 = sap3_ref.position(2, 0.0)
        x1 = sap3_ref.position(2, 2 * HALF_LENGTH)
        assert abs(x1 - x0) == pytest.approx(LATERAL_TRAVEL, rel=1e-12)
        assert abs(x1 - x0) == pytest.approx(7.854, abs=5e-4)
        assert sap3_ref.separation(1, 2, 0.0) == pytest.approx(D_FAR, rel=1e-12)
        assert sap3_ref.separation(1, 2, 0.0) == pytest.approx(14.927, abs=5e-4)
        assert sap3_ref.separation(1, 2, 2 * HALF_LENGTH) == pytest.approx(
            D_NEAR, rel=1e-12)
        assert sap3_ref.separation(1, 2, 2 * HALF_LENGTH) == pytest.approx(
            7.073, abs=5e-4)

    def test_sum_rule_inclined_guide_between_outers(self, sap3_ref):
        for z in GRID:
            total = sap3_ref.separation(1, 2, z) + sap3_ref.separation(2, 3, z)
            assert total == pytest.approx(SEPARATION, rel=1e-12)

    def test_crossing_rejected(self):
        # lateral travel beyond the half separation makes guide 2 cross guide 1
        with pytest.raises(GeometryError):
            build_sap3(HALF_LENGTH, SEPARATION, 0.1, WIDTH)

    def test_overlap_rejected(self):
        # travel of 6.5 um leaves 4.5 um < width at the facets
        angle = math.degrees(math.atan(6.5 / HALF_LENGTH))
        with pytest.raises(GeometryError):
            build_sap3(HALF_LENGTH, SEPARATION, angle, WIDTH)

    @pytest.mark.parametrize("bad", [
        dict(half_length=-1.0), dict(outer_separation=0.0),
        dict(angle_deg=-0.1), dict(width=0.0),
    ])
    def test_parameter_validation(self, bad):
        kwargs = dict(half_length=HALF_LENGTH, outer_separation=SEPARATION,
                      angle_deg=ANGLE, width=WIDTH)
        kwargs.update(bad)
        with pytest.raises(GeometryError):
            build_sap3(**kwargs)


class TestFsap3:
    def test_cut_at_midpoint(self, fsap3_ref):
        assert fsap3_ref.z_end_um == pytest.approx(HALF_LENGTH)
        z = fsap3_ref.z_end_um
        assert fsap3_ref.separation(1, 2, z) == pytest.approx(11.0)
        assert fsap3_ref.separation(2, 3, z) == pytest.approx(11.0)

    def test_full_cut_equals_sap3(self, sap3_ref):
        lay = build_fsap3(HALF_LENGTH, SEPARATION, ANGLE, WIDTH, 2.0)
        assert lay.paths == sap3_ref.paths
        assert lay.z_end_um == sap3_ref.z_end_um
        assert lay.width_um == sap3_ref.width_um

    def test_short_cut_asymmetric_facet(self):
        lay = build_fsap3(HALF_LENGTH, SEPARATION, ANGLE, WIDTH, 0.9)
        z = lay.z_end_um
        offset = 0.1 * HALF_LENGTH * TAN_ALPHA   # 0.3927 um
        assert lay.separation(1, 2, z) == pytest.approx(11.0 + offset, rel=1e-12)
        assert lay.separation(2, 3, z) == pytest.approx(11.0 - offset, rel=1e-12)
        assert offset == pytest.approx(0.393, abs=5e-4)

    @pytest.mark.parametrize("f", [0.0, -0.5, 2.1])
    def test_cut_fraction_bounds(self, f):
        with pytest.raises(GeometryError):
            build_fsap3(HALF_LENGTH, SEPARATION, ANGLE, WIDTH, f)


class TestFolded5:
    def test_straight_guide_positions(self, folded5_ref):
        for z in (0.0, HALF_LENGTH, 2 * HALF_LENGTH):
            assert folded5_ref.position(1, z) == 0.0
            assert folded5_ref.position(3, z) == SEPARATION
            assert folded5_ref.position(5, z) == 2 * SEPARATION

    def test_output_guide_distance_for_far_field(self, folded5_ref):
        d = folded5_ref.separation(1, 5, folded5_ref.z_end_um)
        assert d == pytest.approx(44.0)

    def test_mirror_symmetry_on_grid(self, folded5_ref):
        for z in GRID:
            x = [folded5_ref.position(i, z) for i in (1, 2, 3, 4, 5)]
            assert x[2] - x[1] == pytest.approx(x[3] - x[2], rel=1e-12, abs=1e-12)
            assert x[1] - x[0] == pytest.approx(x[4] - x[3], rel=1e-12, abs=1e-12)

    def test_inclined_guides_start_near_outer(self, folded5_ref):
        assert folded5_ref.separation(1, 2, 0.0) == pytest.approx(D_NEAR, rel=1e-12)
        assert folded5_ref.separation(2, 3, 0.0) == pytest.approx(D_FAR, rel=1e-12)
        assert folded5_ref.separation(1, 2, 0.0) == pytest.approx(7.073, abs=5e-4)
        assert folded5_ref.separation(2, 3, 0.0) == pytest.approx(14.927, abs=5e-4)
        z_end = folded5_ref.z_end_um
        assert folded5_ref.separation(2, 3, z_end) == pytest.approx(D_NEAR,
                                                                    rel=1e-12)

    def test_equal_spacing_at_midpoint_each_half(self, folded5_ref):
        for i, j in ((1, 2), (2, 3), (3, 4), (4, 5)):
            assert folded5_ref.separation(i, j, HALF_LENGTH) == pytest.approx(11.0)

    def test_crossing_rejected(self):
        with pytest.raises(GeometryError):
            build_folded5(HALF_LENGTH, SEPARATION, 0.1, WIDTH)

    def test_lambda_block_is_the_mirror_even_block(self, folded5_ref,
                                                   sap3_ref):
        # k12 and k23 with factors (1, sqrt 2) for folded5, whose mirrored
        # gaps build_layout places equal only to roundoff; (1, 1) and every
        # gap for 3 guides
        dx0, dslope = folded5_ref.gaps
        block = folded5_ref.lambda_block
        assert np.array_equal(block[0], dx0[:2])
        assert np.array_equal(block[1], dslope[:2])
        assert np.array_equal(block[2], [1.0, math.sqrt(2.0)])
        assert np.allclose(dx0[::-1], dx0, rtol=1e-14, atol=0.0)
        assert [list(v) for v in sap3_ref.lambda_block] == [
            list(sap3_ref.gaps[0]), list(sap3_ref.gaps[1]), [1.0, 1.0]]

    @pytest.mark.parametrize("field, shift", [("x0", 1e-6), ("slope", 1e-9)])
    def test_lambda_block_needs_the_mirror(self, folded5_ref, field, shift):
        paths = list(folded5_ref.paths)
        paths[4] = paths[4]._replace(**{field: getattr(paths[4], field)
                                        + shift})
        layout = ArrayLayout(tuple(paths), folded5_ref.z_end_um, WIDTH,
                             Kind.FOLDED5)
        with pytest.raises(GeometryError, match="not mirror symmetric"):
            layout.lambda_block


class TestSeparationQueries:
    def test_outer_to_center_constant(self, folded5_ref):
        for z in (0.0, 1234.5, 2 * HALF_LENGTH):
            assert folded5_ref.separation(1, 3, z) == pytest.approx(SEPARATION)

    def test_self_separation_zero(self, folded5_ref):
        assert folded5_ref.separation(2, 2, 4321.0) == 0.0

    def test_midpoint_half_separation(self, folded5_ref):
        assert folded5_ref.separation(2, 3, HALF_LENGTH) == pytest.approx(11.0)

    def test_out_of_range_rejected(self, folded5_ref):
        with pytest.raises(GeometryError):
            folded5_ref.separation(1, 2, -1.0)
        with pytest.raises(GeometryError):
            folded5_ref.separation(1, 2, 2 * HALF_LENGTH + 1.0)
        with pytest.raises(GeometryError):
            folded5_ref.separation(0, 2, 0.0)
        with pytest.raises(GeometryError):
            folded5_ref.separation(1, 6, 0.0)


class TestInvariantsOnGrid:
    @pytest.mark.parametrize("fixture", ["sap3_ref", "fsap3_ref", "folded5_ref"])
    def test_order_and_clearance(self, fixture, request):
        lay = request.getfixturevalue(fixture)
        zs = np.linspace(0.0, lay.z_end_um, 1000)
        for z in zs:
            xs = [lay.position(i, z) for i in range(1, lay.n_guides + 1)]
            diffs = np.diff(xs)
            assert np.all(diffs > 0)
            assert np.all(diffs >= lay.width_um)


class TestPathAndRescale:
    def test_slope_sanity_bound(self):
        with pytest.raises(GeometryError):
            WaveguidePath(0.0, math.tan(math.radians(6.0)), 1)

    def test_rescaled_preserves_facets(self, folded5_ref):
        spec2 = folded5_ref.spec.rescaled(2.0)
        lay2 = build_layout(spec2)
        assert lay2.z_end_um == pytest.approx(4 * HALF_LENGTH)
        for i, j in ((1, 2), (2, 3)):
            assert lay2.separation(i, j, 0.0) == pytest.approx(
                folded5_ref.separation(i, j, 0.0), rel=1e-12)
            assert lay2.separation(i, j, lay2.z_end_um) == pytest.approx(
                folded5_ref.separation(i, j, folded5_ref.z_end_um), rel=1e-12)

    def test_rescaled_stretches_profile(self, folded5_ref):
        lay2 = build_layout(folded5_ref.spec.rescaled(2.0))
        for z in (0.0, 2500.0, 7500.0, 15000.0):
            assert lay2.separation(1, 2, 2 * z) == pytest.approx(
                folded5_ref.separation(1, 2, z), rel=1e-12)


@given(
    half_length=st.floats(1000.0, 20000.0),
    sep=st.floats(15.0, 60.0),
    angle=st.floats(0.0, 0.06),
    width=st.floats(2.0, 8.0),
)
@settings(max_examples=60, deadline=None)
def test_valid_builds_keep_order_and_clearance(half_length, sep, angle, width):
    travel = half_length * math.tan(math.radians(angle))
    assume(sep / 2 - travel >= width + 1e-6)
    lay = build_folded5(half_length, sep, angle, width)
    for z in np.linspace(0.0, lay.z_end_um, 100):
        xs = [lay.position(i, z) for i in range(1, 6)]
        diffs = np.diff(xs)
        assert np.all(diffs >= width - 1e-9)


class TestTopology:
    @given(
        kind=st.sampled_from(list(Kind)),
        half_length=st.floats(1000.0, 20000.0),
        sep=st.floats(15.0, 60.0),
        angle=st.floats(0.005, 0.06),
        width=st.floats(2.0, 8.0),
        cut=st.floats(0.05, 2.0),
        detuning=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_matches_the_built_guides(self, kind, half_length, sep,
                                            angle, width, cut, detuning):
        travel = half_length * math.tan(math.radians(angle))
        assume(sep / 2 - travel >= width + 1e-6)
        layout = build_layout(GeometrySpec(kind, half_length, sep, angle,
                                           width, cut))
        sloped = tuple(p.label for p in layout.paths if p.slope != 0.0)
        assert layout.inclined_labels == sloped
        model = calibrated_model(layout, 0.15, 1.0, 1550.0,
                                 detuning=detuning)
        darks = adiabaticity_margin(layout, model, 1550.0, 16).dark_states
        assert np.all(darks[:, [label - 1 for label in sloped]] == 0.0)
        assert np.argmax(np.abs(darks[0])) + 1 == layout.input_label
        assert layout.output_labels == (1, layout.n_guides)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_straight_layout_keeps_its_inclined_guides(self, kind):
        # at angle 0 no guide has a slope, yet the inclined guides (2 and 4)
        # still carry the detuning and define the facet separations
        layout = build_layout(GeometrySpec(kind, HALF_LENGTH, SEPARATION,
                                           0.0, WIDTH))
        assert all(p.slope == 0.0 for p in layout.paths)
        model = CouplingModel(kappa_ref=0.7, d_ref=11.0, delta_decay=4.14,
                              lambda0=1550.0, detuning=0.3)
        _, diagonal = coupling_chain([layout], [model], [1550.0])
        expected = np.zeros(layout.n_guides)
        expected[1::2] = 0.3
        assert np.array_equal(diagonal[:, 0], expected)
        assert facet_separations(layout) == (11.0, 11.0)


def closed_form_paths(kind, half_length, sep, tan_a):
    """(x0, slope) per guide as each kind was first written out by hand."""
    if kind is Kind.FOLDED5:
        return [(0.0, 0.0), (sep / 2 - half_length * tan_a, tan_a),
                (sep, 0.0), (3 * sep / 2 + half_length * tan_a, -tan_a),
                (2 * sep, 0.0)]
    return [(0.0, 0.0), (sep / 2 + half_length * tan_a, -tan_a), (sep, 0.0)]


def same_float(a, b):
    """Equal under ==, and of the same sign when both are zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestBuildLayout:
    @pytest.mark.parametrize("angle", [ANGLE, 0.0])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_paths_match_the_closed_forms(self, kind, angle):
        layout = build_layout(GeometrySpec(kind, HALF_LENGTH, SEPARATION,
                                           angle, WIDTH))
        tan_a = math.tan(math.radians(angle))
        expected = closed_form_paths(kind, HALF_LENGTH, SEPARATION, tan_a)
        assert [p.label for p in layout.paths] == list(
            range(1, len(expected) + 1))
        for path, (x0, slope) in zip(layout.paths, expected):
            assert same_float(path.x0, x0), (path, x0)
            assert same_float(path.slope, slope), (path, slope)
        assert layout.z_end_um == (HALF_LENGTH if kind is Kind.FSAP3
                                   else 2 * HALF_LENGTH)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_kind_given_as_a_string_builds_the_enum_kind(self, kind):
        # reports read layout.kind.value, and TOPOLOGY is keyed by the enum
        layout = build_layout(GeometrySpec(kind.value, HALF_LENGTH,
                                           SEPARATION, ANGLE, WIDTH))
        assert layout.kind is kind and layout.spec.kind is kind
        assert layout.input_label == build_layout(
            GeometrySpec(kind, HALF_LENGTH, SEPARATION, ANGLE,
                         WIDTH)).input_label

    @pytest.mark.parametrize("spec,message", [
        (("ring", -1.0, 0.0, -1.0, 0.0, 0.0), "unknown layout kind 'ring'"),
        (("fsap3", -1.0, 0.0, -1.0, 0.0, 0.0),
         "cut_fraction must lie in (0, 2]"),
        (("sap3", -1.0, 0.0, -1.0, 0.0, 0.0), "half_length must be positive"),
        (("folded5", 1.0, 0.0, -1.0, 0.0), "outer_separation must be positive"),
        (("sap3", 1.0, 1.0, -1.0, 0.0), "angle must be non-negative"),
        (("fsap3", 1.0, 1.0, 0.0, 0.0, 2.0), "width must be positive"),
    ])
    def test_checks_run_in_order(self, spec, message):
        # the first failing check names itself, and an unknown kind is a
        # GeometryError, never a KeyError
        with pytest.raises(GeometryError) as info:
            build_layout(GeometrySpec(*spec))
        assert str(info.value) == message

    def test_cut_is_kept_only_where_it_cuts(self):
        spec = GeometrySpec(Kind.FOLDED5, HALF_LENGTH, SEPARATION, ANGLE,
                            WIDTH, 0.5)
        assert build_layout(spec).spec.cut_fraction == 1.0
        assert build_layout(spec).z_end_um == 2 * HALF_LENGTH

    @pytest.mark.parametrize("spec,message", [
        ((Kind.FOLDED5, 1.0, 1e308, 0.0, 1.0),
         "guide 5 position at z = 0 um is not finite"),
        ((Kind.SAP3, 7500.0, math.nan, ANGLE, WIDTH),
         "guide 1 position at z = 0 um is not finite"),
        ((Kind.SAP3, 1e308, SEPARATION, 0.0, WIDTH),
         "guide 1 position at z = inf um is not finite"),
    ])
    def test_non_finite_positions_rejected(self, spec, message):
        with pytest.raises(GeometryError) as info:
            build_layout(GeometrySpec(*spec))
        assert str(info.value) == message
