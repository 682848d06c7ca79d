"""Geometry/coupling trade-off search for the 5-guide splitter.

A candidate is scored by a weighted sum of normalized objectives (lower is
better): band-worst crosstalk relative to the requirement, band splitting
imbalance, device length, and the peak adiabaticity metric. The scalarized
score matches the single-working-point style of the trade-off study; the
ranked table doubles as a Pareto inspection dump.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .analysis import adiabaticity_margin
from .coupling import calibrated_model
from .errors import CalibrationError, GeometryError
from .geometry import GeometrySpec, Kind, build_layout
from .propagator import PropagationOptions
from .spectral import sweep_designs


class CandidateParams(namedtuple("CandidateParams", "alpha_deg separation_um "
                                 "half_length_um target_ratio")):
    __slots__ = ()

    def as_tuple(self):
        return tuple(self)


Objectives = namedtuple("Objectives", "worst_crosstalk_db band_imbalance "
                        "device_length_um max_adiabaticity")


class ObjectiveWeights(namedtuple("ObjectiveWeights",
                                  "crosstalk imbalance length adiabaticity")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks

    def __new__(cls, crosstalk: float = 1.0, imbalance: float = 1.0,
                length: float = 0.25, adiabaticity: float = 0.5):
        vals = (crosstalk, imbalance, length, adiabaticity)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be non-negative")
        if not any(v > 0 for v in vals):
            raise ValueError("at least one weight must be positive")
        return super().__new__(cls, *vals)


class ObjectiveConfig(namedtuple("ObjectiveConfig", [
        "weights", "lam_min", "lam_max", "n_points",
        "crosstalk_requirement_db", "width_um", "kappa_ref", "lambda0", "rho",
        "detuning", "margin_samples", "options"], defaults=[
        ObjectiveWeights(), 1500.0, 1630.0, 9, -15.0, 6.0, 0.7175, 1550.0,
        1.0, 0.0, 201, PropagationOptions()])):
    """Scoring configuration.

    Normalizations: crosstalk enters as (worst - requirement)/10 dB,
    imbalance as the band-max |raw output fraction - 0.5|, length in cm,
    adiabaticity as the bare metric. kappa_ref is held fixed across
    candidates (the decay length is recalibrated per candidate from
    target_ratio); nested closed-loop strength calibration is deliberately
    avoided.
    """

    __slots__ = ()


# objectives is None when the geometry is invalid
DesignCandidate = namedtuple("DesignCandidate", "params objectives score "
                             "valid note", defaults=[""])


def _score(o: Objectives, config: ObjectiveConfig) -> float:
    w = config.weights
    return (w.crosstalk * (o.worst_crosstalk_db
                           - config.crosstalk_requirement_db) / 10.0
            + w.imbalance * o.band_imbalance
            + w.length * o.device_length_um / 1e4   # um to cm
            + w.adiabaticity * o.max_adiabaticity)


def evaluate_candidate(params: CandidateParams,
                       config: ObjectiveConfig) -> DesignCandidate:
    """Build, calibrate, sweep the band and score one parameter point."""
    return _evaluate([params], config)[0]


def _evaluate(points, config: ObjectiveConfig) -> list:
    """Score each parameter point, sweeping and scoring one design per
    coupling profile.

    Every point is checked on its own (``build_layout`` and
    ``calibrated_model``). The valid points are keyed by (half_length_um,
    target_ratio); the first valid point of each key, in point order, is
    its representative. The representatives' band sweeps run as one
    batched propagation, and each gets its own adiabaticity margin; every
    other valid point of a key takes its representative's objectives and
    score, so equal-profile points tie exactly.

    The copy is exact because the separation and angle do not enter the
    coupled-mode matrix. In folded5 the gap of each inclined guide to its
    outer neighbour runs linearly from d_near to d_far over the device
    length 2L, and the gap to the center the other way, so
    x_i(z) = (d_i(z) - d_near)/(d_far - d_near) is z/2L or 1 - z/2L.
    ``calibrated_model`` pins d_ref = d_near and sets
    delta_0 = (d_far - d_near)/ln(1/r), so

        k_i(z, lam) = kappa_ref * r**(x_i(z) / (1 + rho (lam - lam0)/lam0))

    whatever the separation and angle, and the detuning diagonal depends on
    the topology alone.
    """
    candidates, profiles = [], {}
    for params in points:
        try:
            spec = GeometrySpec(Kind.FOLDED5, params.half_length_um,
                                params.separation_um, params.alpha_deg,
                                config.width_um)
            layout = build_layout(spec)
            model = calibrated_model(layout, params.target_ratio,
                                     config.kappa_ref, config.lambda0,
                                     config.rho, config.detuning)
        except (GeometryError, CalibrationError, ValueError) as exc:
            candidates.append(DesignCandidate(params, None, math.inf, False,
                                              str(exc)))
            continue
        key = (params.half_length_um, params.target_ratio)
        if key not in profiles:
            profiles[key] = (layout, model, [])
        profiles[key][2].append(len(candidates))
        candidates.append(None)

    curves = sweep_designs([lay for lay, _, _ in profiles.values()],
                           [mod for _, mod, _ in profiles.values()],
                           config.lam_min, config.lam_max, config.n_points,
                           config.options)
    for (layout, model, members), curve in zip(profiles.values(), curves):
        imbalance = max(abs(r.fractions[0] - 0.5) for r in curve.reports)
        objectives = Objectives(
            worst_crosstalk_db=curve.summary.worst_crosstalk_db,
            band_imbalance=imbalance,
            device_length_um=layout.z_end_um,
            max_adiabaticity=adiabaticity_margin(
                layout, model, config.lambda0,
                config.margin_samples).max_value,
        )
        score = _score(objectives, config)
        for i in members:
            candidates[i] = DesignCandidate(points[i], objectives, score,
                                            True)
    return candidates


ParameterBounds = namedtuple(
    "ParameterBounds", "alpha_deg separation_um half_length_um target_ratio",
    defaults=[(0.015, 0.045), (11.0, 33.0), (3750.0, 11250.0), (0.15, 0.15)])


def _axis(bounds: tuple, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("steps must be at least 1")
    lo, hi = bounds
    if steps == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, steps)


def _rank_key(cand: DesignCandidate):
    length = cand.objectives.device_length_um if cand.valid else math.inf
    return (cand.score, length) + cand.params.as_tuple()


def grid_search(bounds: ParameterBounds, steps, config: ObjectiveConfig,
                budget: int = 2000) -> list:
    """Exhaustive evaluation over the Cartesian grid, ranked by score with
    ties broken by shorter device, then lexicographic parameters. The grid
    sweeps and scores one design per (half_length, target_ratio), all in
    one batched propagation, and every other valid point of that pair
    shares its score (see ``_evaluate``), so equal-profile points tie.

    ``steps`` is a 4-tuple of per-axis counts (alpha, separation,
    half_length, target_ratio).
    """
    axes = [
        _axis(bounds.alpha_deg, steps[0]),
        _axis(bounds.separation_um, steps[1]),
        _axis(bounds.half_length_um, steps[2]),
        _axis(bounds.target_ratio, steps[3]),
    ]
    total = int(np.prod([len(ax) for ax in axes]))
    if total > budget:
        raise ValueError(f"grid of {total} points exceeds budget {budget}")

    points = [CandidateParams(float(a), float(s), float(L), float(r))
              for a in axes[0] for s in axes[1] for L in axes[2]
              for r in axes[3]]
    return sorted(_evaluate(points, config), key=_rank_key)


def refine_local(start: DesignCandidate, config: ObjectiveConfig,
                 bounds: ParameterBounds, max_iters: int) -> DesignCandidate:
    """Bounded compass search from ``start`` (Kolda, Lewis & Torczon, SIAM
    Rev. 45, 385 (2003)).

    Polls half_length_um and target_ratio where their bounds have lo < hi;
    the separation and angle leave the score unchanged (see ``_evaluate``).
    A poll scores the points one step either side on each free axis,
    clipped to the bounds, in one ``_evaluate`` call, and moves to the best
    of them if it scores strictly lower, else halves the step. The step
    starts at 0.25 of the axis width; the search stops below 1e-3 of it or
    after ``max_iters`` polls. Returns the start unless a point scores
    strictly below the start re-scored the same way (a grid score differs
    from it by the roundoff of a larger batch).
    """
    free = [(i, lo, hi) for i, (lo, hi) in
            ((2, bounds.half_length_um), (3, bounds.target_ratio)) if lo < hi]
    if max_iters <= 0 or not free:
        return start
    rescored = best = _evaluate([start.params], config)[0]
    step = 0.25
    for _ in range(max_iters):
        x = best.params.as_tuple()
        polls = [CandidateParams(*x[:i], min(max(v, lo), hi), *x[i + 1:])
                 for i, lo, hi in free
                 for v in (x[i] - step * (hi - lo), x[i] + step * (hi - lo))]
        polls = [p for p in polls if p != best.params]
        if step < 1e-3 or not polls:
            break
        trial = min(_evaluate(polls, config), key=lambda c: c.score)
        if trial.score < best.score:
            best = trial
        else:
            step /= 2
    return best if best.score < rescored.score else start
