"""The batched propagation route against the per-system one and the oracle.

``propagate_batch`` integrates many systems with one DOP853 solve; every
multi-system caller (sweeps, scans, calibration, the design grid) goes
through it. These tests check it and the 1-D ``propagate``, member by
member, against a one-system solve at rtol 1e-13 and the independent
piecewise-constant ``propagate_oracle``, and check that a failing member
fails the batch as it fails alone. The batch solves each member's
three-level block (``ArrayLayout.lambda_block``): for sap3 and fsap3 that
is the device, and the workspace route of the batch step is checked bit
for bit against a frozen copy of the allocating route (``batch_oracle``);
folded5 members, its mirror-even block, are checked against that copy run
on the full 5 x 5 H at rtol 1e-13, and for exact mirror symmetry.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sapsim import (ArrayLayout, GeometryError, IntegrationError,
                    PropagationOptions, build_folded5, build_fsap3, build_sap3,
                    calibrated_model, dop853, nominal_input, propagate,
                    propagate_batch, propagate_oracle, propagator, split_report)

import batch_oracle
from conftest import KAPPA_REF, LAM0, TARGET_RATIO

# Acceptance criterion 1: agreement with the oracle at 20000 slices.
ORACLE_BOUND = 1e-6
ORACLE_SLICES = 20000

# Each route's member at the default rtol against a one-system solve at
# rtol 1e-13. Over 1800 drawn batches of this file's strategy (about 3900
# members) the largest error was 1.06e-10, and the recorded draw below has
# 1.32e-10 in its batched member: about 1.3 rtol, at either route. The two
# routes err independently, so checking one against the other would need
# twice that; each is held to ten times the default rtol instead.
REFERENCE = PropagationOptions(rtol=1e-13, atol=1e-15)
ROUTE_DA = 10 * PropagationOptions().rtol


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


# 3-guide devices of both kinds mixed, or folded5 devices (kinds of either
# guide count mix in test_mixed_kinds_share_one_solve); their lengths
# differ, so members step in u = z / z_end
batches = st.one_of(st.lists(device(["sap3", "fsap3"]), min_size=1, max_size=4),
                    st.lists(device(["folded5"]), min_size=1, max_size=4))


def folded5_member(half_length, sep, angle, width, kappa_ref, detuning, lam):
    layout = build_folded5(half_length, sep, angle, width)
    return layout, calibrated_model(layout, TARGET_RATIO, kappa_ref, LAM0,
                                    detuning=detuning), lam


@given(members=batches)
# A drawn batch whose second member's batched and one-system finals
# differed by 1.23e-10. Its log kept that member's values to the digits
# below, and of the first member only the length and wavelength; the first
# member's coupling is picked weak enough that the second sets the shared
# steps, as it did then, and its batched final is 1.32e-10 from the
# reference. In folded5 the separation, angle and width do not enter H.
@example(members=[folded5_member(3993.0, 25.0, 0.03, 5.0, 0.5, 0.0, 1605.0),
                  folded5_member(9408.0, 34.0, 0.015625, 5.0, 0.34375, 0.254,
                                 1586.0)])
@settings(max_examples=15, derandomize=True, deadline=None)
def test_batch_matches_scalar_and_oracle(members):
    layouts, models, lams = zip(*members)
    finals = propagate_batch(layouts, models, lams)
    for layout, model, lam, final in zip(layouts, models, lams, finals):
        reference = propagate(layout, model, lam,
                              opts=REFERENCE).final.amplitudes
        scalar = propagate(layout, model, lam).final.amplitudes
        assert final.z_um == layout.z_end_um and final.wavelength_nm == lam
        assert np.max(np.abs(final.amplitudes - reference)) <= ROUTE_DA
        assert np.max(np.abs(scalar - reference)) <= ROUTE_DA
    # the oracle costs ~0.1 s a system: check one member per batch
    layout, model, lam = members[0]
    oracle = propagate_oracle(layout, model, lam, nominal_input(layout, lam),
                              ORACLE_SLICES).amplitudes
    assert np.max(np.abs(finals[0].amplitudes - oracle)) <= ORACLE_BOUND


def test_empty_batch():
    assert propagate_batch([], [], []) == []


def test_mixed_kinds_share_one_solve(sap3_ref, fsap3_ref, folded5_ref,
                                     model_sap3, model_ref):
    # every member is a three-level block, so kinds mix in one solve; each
    # final keeps its layout's guide count
    layouts = [sap3_ref, folded5_ref, fsap3_ref]
    models = [model_sap3, model_ref,
              calibrated_model(fsap3_ref, TARGET_RATIO, KAPPA_REF, LAM0)]
    lams = [1500.0, LAM0, 1630.0]
    finals = propagate_batch(layouts, models, lams)
    for layout, model, lam, final in zip(layouts, models, lams, finals):
        reference = propagate(layout, model, lam,
                              opts=REFERENCE).final.amplitudes
        assert final.amplitudes.shape == (layout.n_guides,)
        assert np.max(np.abs(final.amplitudes - reference)) <= ROUTE_DA


def test_non_mirror_folded5_fails_before_any_solve(folded5_ref, model_ref,
                                                   monkeypatch):
    # a hand-built folded5 layout whose guide 4 is 1 um off its mirror
    # place has no three-level block: the batch rejects it from its gaps,
    # before a step is taken or a member is solved alone, while the
    # one-system route still propagates all 5 guides
    paths = list(folded5_ref.paths)
    paths[3] = paths[3]._replace(x0=paths[3].x0 + 1.0)
    broken = ArrayLayout(tuple(paths), folded5_ref.z_end_um,
                         folded5_ref.width_um, folded5_ref.kind)
    monkeypatch.setattr(dop853, "solve", None)
    monkeypatch.setattr(propagator, "propagate", None)
    with pytest.raises(GeometryError, match="not mirror symmetric"):
        propagate_batch([folded5_ref, broken], [model_ref] * 2, [LAM0] * 2)
    monkeypatch.undo()
    final = propagate(broken, model_ref, LAM0).final.amplitudes
    assert abs(final[0]) != abs(final[4])


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


def test_failed_solve_reruns_members_up_to_the_failing_one(folded5_ref,
                                                         monkeypatch):
    # the batch fails; its members are solved alone, in order, and the
    # member after the failing one is not solved at all
    good = calibrated_model(folded5_ref, TARGET_RATIO, KAPPA_REF, LAM0)
    bad = calibrated_model(folded5_ref, TARGET_RATIO, np.inf, LAM0)
    alone, propagate_alone = [], propagator.propagate
    monkeypatch.setattr(propagator, "propagate",
                        lambda *args, **kw: alone.append(args[2])
                        or propagate_alone(*args, **kw))
    with pytest.raises(IntegrationError, match="lam = 1565.0 nm"):
        propagate_batch([folded5_ref] * 3, [good, bad, good],
                        [1500.0, 1565.0, 1630.0])
    assert alone == [1500.0, 1565.0]


def test_overflowing_batch_warns_nothing(folded5_ref):
    # i H a overflows in the workspace's arrays: the solve fails as before,
    # with no numpy RuntimeWarning on the way
    bad = calibrated_model(folded5_ref, TARGET_RATIO, 1e300, LAM0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError,
                           match="^Required step size is less than"):
            propagator.batch_finals([folded5_ref] * 2, [bad] * 2,
                                    [1500.0, 1630.0])


def test_non_finite_member_named_in_the_batch(folded5_ref):
    # the batched solve itself (before propagate_batch's one-at-a-time
    # rerun) names the wavelength of its non-finite member
    good = calibrated_model(folded5_ref, TARGET_RATIO, KAPPA_REF, LAM0)
    bad = calibrated_model(folded5_ref, TARGET_RATIO, np.inf, LAM0)
    with pytest.raises(IntegrationError,
                       match=r"^non-finite Hamiltonian at lam = 1565.0 nm$"):
        propagator.batch_finals([folded5_ref] * 3, [good, bad, good],
                                [1500.0, 1565.0, 1630.0])


@pytest.mark.parametrize("shape, fun", [
    (3, lambda t, y: 1e6j * y),
    # a batch's fun binds to the solve's (n, B) stage state and returns
    # at(ts), which takes the step's evaluation points, and rate(s, out)
    ((3, 2), lambda stage: (lambda ts: None,
                            lambda s, out: np.multiply(1e6j, stage, out))),
], ids=["system", "batch"])
def test_step_budget_ends_a_fast_oscillation(shape, fun):
    # y' = i 1e6 y over [0, 1] needs about 1e6 steps; the solve stops at
    # MAX_STEPS trial steps instead, for one system and for a batch
    y0 = np.ones(shape, dtype=complex)
    with pytest.raises(IntegrationError, match="step budget"):
        dop853.solve(fun, 0.0, 1.0, y0, 1e-10, 1e-12)


def test_members_are_cut_in_order(folded5_ref, model_ref, monkeypatch):
    monkeypatch.setattr(propagator, "BATCH_SIZE", 4)
    solves, batch_finals = [], propagator.batch_finals

    def recorded(layouts, models, lams, opts):
        solves.append(list(lams))
        return batch_finals(layouts, models, lams, opts)

    monkeypatch.setattr(propagator, "batch_finals", recorded)
    lams = [1500.0 + 20.0 * i for i in range(6)]
    finals = propagate_batch([folded5_ref] * 6, [model_ref] * 6, lams)
    assert solves == [lams[:4], lams[4:]]
    assert [f.wavelength_nm for f in finals] == lams


def test_column_runs_hold_exactly_the_nonzero_weights():
    # the batch step adds stage j to the rows lo:hi of column j; those must
    # be the nonzero weights of stages 1-11, B, E5 and E3, and nothing else
    table = np.zeros_like(dop853._SUMS)
    for j, (lo, hi, w) in enumerate(dop853._COLUMNS):
        assert np.all(w != 0)
        table[lo:hi, j] = w[:, 0, 0].real
    expected = np.vstack([dop853._A[1:12, :12], dop853._B,
                          dop853._E5[:12], dop853._E3[:12]])
    assert np.array_equal(table, expected)
    assert np.count_nonzero(expected) == 74
    # stage 0 enters every sum: its terms start them
    assert dop853._COLUMNS[0][:2] == (0, len(expected))
    # the error rows have no weight on the stage at the new point
    assert dop853._E5[12] == dop853._E3[12] == 0


def bits(x):
    return np.ascontiguousarray(x).tobytes()


@st.composite
def stage_stacks(draw):
    # 13 stages of an (n, B) batch, with exact zeros of either sign mixed in
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B, n = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    shape = (13, n, B)
    scale = 10.0 ** rng.uniform(-3, 3, size=shape)
    K = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    K.real[rng.random(shape) < 0.1] = 0.0
    K.imag[rng.random(shape) < 0.1] = -0.0
    return K


@given(K=stage_stacks(), h=st.floats(-1.0, 1.0).filter(bool))
@settings(max_examples=20, derandomize=True, deadline=None)
def test_column_sums_match_per_term_sums_bit_for_bit(K, h):
    # The batch step's stages come from a stub that returns the drawn K;
    # every stage input, the new state and both error sums must equal the
    # per-term formula sum(w_j K_j), taken in order of j over the nonzero
    # weights, bit for bit.
    def row_sum(w):
        return sum(wj * Kj for wj, Kj in zip(w.tolist(), K) if wj)

    rng = np.random.default_rng(1)
    y = rng.normal(size=K.shape[1:]) + 1j * rng.normal(size=K.shape[1:])
    points, inputs = [], []

    def fun(stage):
        def rate(s, out):
            inputs.append(stage.copy())
            out[...] = K[s + 1]

        return points.append, rate

    work, _, _ = dop853._batch_start(fun, 0.0, y, 1.0, 1.0, 1e-6, 1e-9)
    del points[:], inputs[:]
    y_new, f_new, _ = dop853._batch_trial_step(work, 0.0, y, K[0], h,
                                               1e-6, 1e-9)
    [ts] = points
    assert bits(ts) == bits(0.0 + dop853._C[1:13, None, None] * h)
    assert bits(f_new) == bits(K[12])
    for s, a in enumerate(inputs[:11], start=1):
        assert bits(a) == bits(y + row_sum(dop853._A[s, :s]) * h)
    assert bits(inputs[11]) == bits(y_new)
    assert bits(y_new) == bits(y + h * row_sum(dop853._B))
    sums = work[4]                     # (at, rate, stage, k, sums, ...)
    assert bits(sums[12]) == bits(row_sum(dop853._E5))
    assert bits(sums[13]) == bits(row_sum(dop853._E3))


def member_sums(x):
    """Sum of |x|^2 over the guides of each member of an (n, B) array: one
    np.add.reduce over a contiguous copy of each member."""
    return np.array([np.add.reduce(np.ascontiguousarray(m.real ** 2
                                                        + m.imag ** 2))
                     for m in x.T])


@st.composite
def wide_stage_stacks(draw):
    # 13 stages of an (n, B) batch with entries of magnitude 1e-8 to 1e8;
    # at 9 guides numpy's reduce over the rows of a members-last array adds
    # in another order than its reduce over one contiguous member
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (13, draw(st.sampled_from([3, 5, 9])), draw(st.integers(1, 9)))
    magnitude = 10.0 ** rng.uniform(-8, 8, size=shape)
    return magnitude * np.exp(2j * np.pi * rng.random(shape))


@given(K=wide_stage_stacks(), h=st.floats(1e-3, 1.0))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_guide_sums_reduce_each_member_contiguously(K, h):
    # _batch_start's member RMS and the trial step's E5 and E3 norms sum
    # over the guide axis; each must equal a per-member np.add.reduce, bit
    # for bit, so that a member's sums do not depend on the batch layout
    n = K.shape[1]
    y = K[0] * 1e-3
    assert bits(dop853._member_rms(K[1])) == \
        bits(np.sqrt(member_sums(K[1]) / n))

    def fun(stage):
        def rate(s, out):
            out[...] = K[s + 1]

        return (lambda ts: None), rate

    rtol, atol = 1e-6, 1e-9
    work, _, _ = dop853._batch_start(fun, 0.0, y, 1.0, 1.0, rtol, atol)
    y_new, _, error_norm = dop853._batch_trial_step(work, 0.0, y, K[0], h,
                                                    rtol, atol)
    sums = work[4]                     # (at, rate, stage, k, sums, ...)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    err5, err3 = member_sums(sums[12] / scale), member_sums(sums[13] / scale)
    denom = err5 + 0.01 * err3
    norms = np.abs(h) * err5 / np.sqrt(denom * n)
    norms[denom == 0] = 0.0
    assert bits(error_norm) == bits(norms.max())


def test_member_order_does_not_change_a_member_bits(folded5_ref):
    # members of one solve share its steps, and each member's arithmetic is
    # element by element, so reversing the batch reverses its finals
    layouts = [build_folded5(h, 27.5, 0.03, 5.0)
               for h in (5000.0, 7500.0, 9000.0)] + [folded5_ref]
    models = [calibrated_model(lay, TARGET_RATIO, KAPPA_REF, LAM0,
                               detuning=0.1) for lay in layouts]
    lams = [1500.0, 1540.0, 1590.0, 1630.0]
    forward = propagator.batch_finals(layouts, models, lams)
    backward = propagator.batch_finals(layouts[::-1], models[::-1],
                                       lams[::-1])
    assert [bits(f.amplitudes) for f in forward] == \
        [bits(f.amplitudes) for f in backward[::-1]]


@st.composite
def seeded_batches(draw, kinds):
    """B devices of one of the kinds, B in {1, 2, 9, 45}, with rho drawn in
    [0, 2] and the detuning zero or drawn in [-2, 2] /mm."""
    kind = draw(st.sampled_from(kinds))
    size = draw(st.sampled_from([1, 2, 9, 45]))
    detuned = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(size):
        args = (rng.uniform(3000.0, 9000.0), rng.uniform(26.0, 34.0),
                rng.uniform(0.01, 0.03), 3.0)
        layout = (build_fsap3(*args, rng.uniform(0.6, 2.0)) if kind == "fsap3"
                  else build_sap3(*args) if kind == "sap3"
                  else build_folded5(*args))
        model = calibrated_model(
            layout, TARGET_RATIO, rng.uniform(0.2, 2.0), LAM0,
            rho=rng.uniform(0.0, 2.0),
            detuning=rng.uniform(-2.0, 2.0) if detuned else 0.0)
        members.append((layout, model, rng.uniform(1500.0, 1630.0)))
    return members


def finals_bits(members):
    finals = propagator.batch_finals(*zip(*members))
    return np.array([f.amplitudes for f in finals]).view(np.uint64)


@given(members=seeded_batches(["sap3", "fsap3"]))
@settings(max_examples=24, derandomize=True, deadline=None)
def test_workspace_route_matches_the_allocating_route_bit_for_bit(members):
    expected = batch_oracle.finals(*zip(*members)).view(np.uint64)
    assert np.array_equal(finals_bits(members), expected)


@given(members=seeded_batches(["folded5"]))
@settings(max_examples=12, derandomize=True, deadline=None)
def test_folded5_block_matches_the_full_matrix(members):
    # the frozen route steps all 5 guides with its own H assembly; run at
    # rtol 1e-13 it is a reference that shares nothing with the block.
    # Over 200 draws of this strategy the block route was at most 6.2e-11
    # from it, and the 5-guide route at the default rtol 9.7e-11.
    finals = np.array([f.amplitudes
                       for f in propagator.batch_finals(*zip(*members))])
    reference = batch_oracle.finals(*zip(*members), rtol=REFERENCE.rtol,
                                    atol=REFERENCE.atol)
    assert np.max(np.abs(finals - reference)) <= ROUTE_DA


@given(members=st.lists(device(["folded5"]), min_size=1, max_size=4))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_folded5_finals_are_mirror_exact(members):
    # the block's finals expand to the 5 guides by one fixed map, so guides
    # 1 and 5, and 2 and 4, carry the same bits, and the output phase
    # arg(a1 conj(a5)) is 0 exactly
    layouts, models, lams = zip(*members)
    for layout, final in zip(layouts, propagate_batch(layouts, models, lams)):
        a = final.amplitudes
        assert bits(a[:2]) == bits(a[:2:-1])
        assert split_report(final, layout.kind).phase_rel_rad == 0.0


def test_solves_share_no_state(folded5_ref, model_ref, model_sap3, sap3_ref):
    # each solve makes its own workspace: solves A, B, A back to back, and
    # four threads running A or B five times each, give the bits of each
    # solve run alone
    lams = np.linspace(1500.0, 1630.0, 7)
    first = [(folded5_ref, model_ref, lam) for lam in lams]
    second = [(sap3_ref, model_sap3, lam) for lam in lams[:3]]
    alone = [finals_bits(first), finals_bits(second)]
    for members, expected in zip([first, second, first], alone + alone[:1]):
        assert np.array_equal(finals_bits(members), expected)

    results = {}

    def run(i):
        results[i] = [finals_bits([first, second][i % 2]) for _ in range(5)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(4):
        assert len(results[i]) == 5
        assert all(np.array_equal(got, alone[i % 2]) for got in results[i])
