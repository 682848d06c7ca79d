import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sapsim import (CalibrationError, CandidateParams, GeometryError,
                    GeometrySpec, Kind, ObjectiveConfig, ObjectiveWeights,
                    ParameterBounds, PropagationOptions, adiabaticity_margin,
                    build_layout, calibrated_model, design,
                    evaluate_candidate, grid_search, propagate_batch,
                    propagator, refine_local, spectral)

REFERENCE_PARAMS = CandidateParams(0.03, 22.0, 7500.0, 0.15)


@pytest.fixture(scope="module")
def cheap():
    """Coarse but honest objective: 3-point band, light integrator."""
    return ObjectiveConfig(
        n_points=3, margin_samples=101,
        options=PropagationOptions(rtol=1e-8, atol=1e-10))


@pytest.fixture(scope="module")
def ranked_125(cheap):
    return grid_search(ParameterBounds(), (5, 5, 5, 1), cheap)


class TestEvaluateCandidate:
    def test_reference_point_meets_crosstalk_requirement(self, cheap):
        cand = evaluate_candidate(REFERENCE_PARAMS, cheap)
        assert cand.valid
        assert cand.objectives.worst_crosstalk_db <= -15.0
        assert cand.objectives.device_length_um == 15000.0
        assert math.isfinite(cand.score)

    def test_halving_length_degrades_crosstalk_objective(self, cheap):
        full = evaluate_candidate(REFERENCE_PARAMS, cheap)
        half = evaluate_candidate(CandidateParams(0.03, 22.0, 3750.0, 0.15),
                                  cheap)
        assert half.objectives.worst_crosstalk_db \
            > full.objectives.worst_crosstalk_db

    def test_invalid_geometry_scores_infinite(self, cheap):
        # 0.2 deg: the guides cross; 0 deg: equal facet separations, which
        # the decay-length calibration cannot fit
        for alpha, note in ((0.2, ""), (0.0, "equal facet separations")):
            cand = evaluate_candidate(CandidateParams(alpha, 22.0, 7500.0,
                                                      0.15), cheap)
            assert not cand.valid
            assert cand.score == math.inf
            assert cand.objectives is None
            assert cand.note != "" and note in cand.note

    def test_deterministic(self, cheap):
        a = evaluate_candidate(REFERENCE_PARAMS, cheap)
        b = evaluate_candidate(REFERENCE_PARAMS, cheap)
        assert a.score == b.score
        assert a.objectives == b.objectives


class TestGridSearch:
    def test_single_point_grid_equals_direct_evaluation(self, cheap):
        bounds = ParameterBounds(alpha_deg=(0.03, 0.03),
                                 separation_um=(22.0, 22.0),
                                 half_length_um=(7500.0, 7500.0),
                                 target_ratio=(0.15, 0.15))
        ranked = grid_search(bounds, (1, 1, 1, 1), cheap)
        direct = evaluate_candidate(REFERENCE_PARAMS, cheap)
        assert len(ranked) == 1
        assert ranked[0].score == direct.score
        assert ranked[0].params == direct.params

    def test_reference_region_in_top_decile(self, ranked_125):
        # regression: the shipped working point ranks 7th of 125 with the
        # default weights (ties broken by shorter device, then parameters)
        def distance(cand):
            p = cand.params
            return (abs(p.alpha_deg - 0.03) / 0.03
                    + abs(p.separation_um - 22.0) / 22.0
                    + abs(p.half_length_um - 7500.0) / 7500.0)

        nearest = min(ranked_125, key=distance)
        assert distance(nearest) < 1e-9
        assert ranked_125.index(nearest) + 1 <= 13

    def test_equal_profile_designs_tie_exactly(self, ranked_125):
        # at fixed length and facet ratio every valid (alpha, separation)
        # pair has the same coupling profile and is scored once, so the
        # pairs share one score and rank by parameters
        block = [c for c in ranked_125
                 if c.valid and c.params.half_length_um == 7500.0]
        assert len(block) == 15
        assert ranked_125[:15] == block
        assert len({c.score for c in block}) == 1
        params = [c.params.as_tuple() for c in block]
        assert params == sorted(params)

    def test_one_sweep_and_one_margin_per_profile(self, cheap, monkeypatch):
        # the grid's 74 valid candidates have 5 (half-length, facet ratio)
        # profiles: 5 designs x 3 wavelengths propagate, 5 margins are taken
        members, margins = [], []

        def counted_batch(layouts, models, lams, opts=None):
            members.extend(lams)
            return propagate_batch(layouts, models, lams, opts)

        def counted_margin(*args):
            margins.append(args)
            return adiabaticity_margin(*args)

        monkeypatch.setattr(spectral, "propagate_batch", counted_batch)
        monkeypatch.setattr(design, "adiabaticity_margin", counted_margin)
        ranked = grid_search(ParameterBounds(), (5, 5, 5, 1), cheap)
        assert sum(c.valid for c in ranked) == 74
        assert (len(members), len(margins)) == (15, 5)

    def test_best_block_picks_reference_length(self, ranked_125):
        assert ranked_125[0].objectives.device_length_um == 15000.0
        assert ranked_125[0].objectives.worst_crosstalk_db <= -15.0

    def test_ranking_total_and_reproducible(self, cheap, ranked_125):
        again = grid_search(ParameterBounds(), (5, 5, 5, 1), cheap)
        assert [c.params for c in again] == [c.params for c in ranked_125]
        assert [c.score for c in again] == [c.score for c in ranked_125]
        finite = [c.score for c in ranked_125 if c.valid]
        assert finite == sorted(finite)
        assert all(not c.valid for c in ranked_125 if c.score == math.inf)

    def test_ranking_does_not_depend_on_the_batch_size(self, cheap,
                                                       ranked_125,
                                                       monkeypatch):
        # with solves of 4 members the grid's 15 (profile, wavelength)
        # systems take 4 solves. An equal-profile block is scored once, so
        # it still ties and the ranking is the one-solve ranking; scores
        # move only by the roundoff of other step sequences (measured
        # 9.8e-9 relative at this rtol of 1e-8).
        monkeypatch.setattr(propagator, "BATCH_SIZE", 4)
        split = grid_search(ParameterBounds(), (5, 5, 5, 1), cheap)
        assert [c.params for c in split] == [c.params for c in ranked_125]
        assert [c.score for c in split] == pytest.approx(
            [c.score for c in ranked_125], rel=1e-7)
        assert len({c.score for c in split[:15]}) == 1

    def test_rank_invariant_under_weight_rescale(self, cheap):
        # length-only axis keeps the scores strictly distinct, so the ranking
        # is determined by the scores alone (not the deterministic tie-break)
        bounds = ParameterBounds(alpha_deg=(0.03, 0.03),
                                 separation_um=(22.0, 22.0),
                                 half_length_um=(3750.0, 11250.0))
        base = grid_search(bounds, (1, 1, 5, 1), cheap)
        scaled_cfg = ObjectiveConfig(
            weights=ObjectiveWeights(3.7, 3.7, 3.7 * 0.25, 3.7 * 0.5),
            n_points=3, margin_samples=101, options=cheap.options)
        scaled = grid_search(bounds, (1, 1, 5, 1), scaled_cfg)
        assert [c.params for c in scaled] == [c.params for c in base]
        for a, b in zip(scaled, base):
            assert a.score == pytest.approx(3.7 * b.score, rel=1e-12)

    def test_budget_guard(self, cheap):
        with pytest.raises(ValueError):
            grid_search(ParameterBounds(), (20, 20, 20, 1), cheap, budget=100)

    def test_degenerate_length_only_objective(self, cheap):
        config = ObjectiveConfig(weights=ObjectiveWeights(0.0, 0.0, 1.0, 0.0),
                                 n_points=3, margin_samples=101,
                                 options=cheap.options)
        bounds = ParameterBounds(alpha_deg=(0.03, 0.03),
                                 separation_um=(22.0, 22.0),
                                 half_length_um=(5000.0, 10000.0))
        ranked = grid_search(bounds, (1, 1, 3, 1), config)
        assert ranked[0].params.half_length_um == 5000.0


def _profile(alpha_deg, separation_um, lam):
    """Couplings on a grid of z/2L and the peak adiabaticity of a folded5
    design at half-length 7500 um and facet ratio 0.15, default config."""
    config = ObjectiveConfig()
    layout = build_layout(GeometrySpec(Kind.FOLDED5, 7500.0, separation_um,
                                       alpha_deg, config.width_um))
    model = calibrated_model(layout, 0.15, config.kappa_ref, config.lambda0,
                             config.rho, config.detuning)
    couplings, _ = propagator.coupling_chain([layout], [model], [lam])
    k = couplings(np.linspace(0.0, 1.0, 41)[:, None, None] * layout.z_end_um)
    return k, adiabaticity_margin(layout, model, lam, 101).max_value


@given(alpha=st.floats(*ParameterBounds().alpha_deg),
       separation=st.floats(*ParameterBounds().separation_um))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_separation_and_angle_leave_the_coupling_profile(alpha, separation):
    # grid_search scores one design per (half-length, facet ratio) and
    # copies its objectives to the rest, which is exact only while the
    # couplings and the margin of a folded5 design depend on neither its
    # separation nor its angle (measured spread 3.2e-15 and 1.7e-14 over
    # 122 valid draws)
    lam = 1600.0    # off lambda0, where rho = 1 stretches the decay length
    try:
        k, margin = _profile(alpha, separation, lam)
    except (GeometryError, CalibrationError):
        assume(False)
    k_ref, margin_ref = _profile(REFERENCE_PARAMS.alpha_deg,
                                 REFERENCE_PARAMS.separation_um, lam)
    np.testing.assert_allclose(k, k_ref, rtol=1e-12, atol=0)
    assert margin == pytest.approx(margin_ref, rel=1e-12, abs=0)


class TestRefineLocal:
    def test_zero_iterations_returns_start(self, cheap):
        start = evaluate_candidate(REFERENCE_PARAMS, cheap)
        assert refine_local(start, cheap, ParameterBounds(),
                            max_iters=0) is start

    def test_never_increases_score(self, cheap):
        start = evaluate_candidate(REFERENCE_PARAMS, cheap)
        refined = refine_local(start, cheap, ParameterBounds(), max_iters=10)
        assert refined.score <= start.score

    def test_polish_that_finds_nothing_returns_grid_start(self, cheap,
                                                          ranked_125):
        # separation and angle are never polled, so a box that fixes the
        # half-length and the facet ratio leaves nothing to search
        start = ranked_125[0]
        fixed = ParameterBounds(half_length_um=(7500.0, 7500.0))
        assert refine_local(start, cheap, fixed, max_iters=5) is start
        # nor does a box narrower than the roundoff of the start's length,
        # where every poll point rounds back to the start
        narrow = ParameterBounds(
            half_length_um=(7500.0, math.nextafter(7500.0, math.inf)))
        assert refine_local(start, cheap, narrow, max_iters=5) is start
        # with only the length weighted, every poll point around the box's
        # shortest design scores higher: the step halves down to 1e-3 of
        # the width and the start comes back
        config = ObjectiveConfig(weights=ObjectiveWeights(0.0, 0.0, 1.0, 0.0),
                                 n_points=3, margin_samples=101,
                                 options=cheap.options)
        start = grid_search(ParameterBounds(), (3, 3, 3, 1), config)[0]
        assert start.params.half_length_um == 3750.0
        assert refine_local(start, config, ParameterBounds(),
                            max_iters=40) is start

    @pytest.mark.parametrize("ratio", [(0.15, 0.15), (0.1, 0.3)])
    def test_one_batched_sweep_per_poll_inside_the_box(self, cheap,
                                                       monkeypatch, ratio):
        # each poll scores its +-step points of every free axis in one
        # _evaluate call, one batched sweep of at most two profiles per
        # axis, and no polled point leaves the box
        bounds = ParameterBounds(target_ratio=ratio)
        free = 1 + (ratio[0] < ratio[1])
        start = evaluate_candidate(REFERENCE_PARAMS, cheap)
        points, profiles = [], []

        def counted_evaluate(batch, config):
            points.append(list(batch))
            return evaluate(batch, config)

        def counted_sweep(layouts, *args):
            profiles.append(len(layouts))
            return sweep_designs(layouts, *args)

        evaluate, sweep_designs = design._evaluate, design.sweep_designs
        monkeypatch.setattr(design, "_evaluate", counted_evaluate)
        monkeypatch.setattr(design, "sweep_designs", counted_sweep)
        refined = refine_local(start, cheap, bounds, max_iters=8)
        assert refined.score < start.score
        assert len(profiles) == len(points) <= 1 + 8
        assert points[0] == [start.params] and profiles[0] == 1
        assert all(1 <= n <= 2 * free for n in profiles[1:])
        for p in (p for batch in points[1:] for p in batch):
            assert (p.alpha_deg, p.separation_um) == (0.03, 22.0)
            for value, (lo, hi) in ((p.half_length_um, bounds.half_length_um),
                                    (p.target_ratio, bounds.target_ratio)):
                assert lo <= value <= hi

    def test_perturbed_start_recovers_basin(self, cheap):
        base = refine_local(evaluate_candidate(REFERENCE_PARAMS, cheap), cheap,
                            ParameterBounds(), max_iters=40)
        perturbed_params = CandidateParams(0.03, 22.0, 7500.0 * 1.1, 0.15)
        perturbed = refine_local(evaluate_candidate(perturbed_params, cheap),
                                 cheap, ParameterBounds(), max_iters=40)
        assert abs(perturbed.score - base.score) <= 0.02 * abs(base.score)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ObjectiveWeights(0.0, 0.0, 0.0, 0.0)
