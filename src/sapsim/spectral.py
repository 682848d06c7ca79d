"""Wavelength sweeps and single-parameter robustness scans.

Every grid point of a sweep or scan is one member of a batched
propagation (``propagate_batch``): the points are integrated together,
one DOP853 solve per batch, each with its own error norm. Results are
deterministic; they agree with one ``propagate`` per point to roundoff
at the integrator tolerance.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .coupling import CouplingModel
from .errors import GeometryError, Record
from .geometry import TOPOLOGY, ArrayLayout, Kind, build_layout
from .propagator import PropagationOptions, propagate_batch
from .analysis import split_report

SCAN_PARAMETERS = ("kappa_ref", "rho", "detuning", "alpha", "separation",
                   "cut_fraction")


class SpectralSummary(Record):
    __slots__ = ("mean_fractions", "std_fractions", "mean_pair_fractions",
                 "worst_crosstalk_db", "max_phase_dev_rad")

    def __init__(self, mean_fractions: np.ndarray, std_fractions: np.ndarray,
                 mean_pair_fractions: np.ndarray, worst_crosstalk_db: float,
                 max_phase_dev_rad: float):
        self.mean_fractions, self.std_fractions = mean_fractions, std_fractions
        self.mean_pair_fractions = mean_pair_fractions
        self.worst_crosstalk_db = worst_crosstalk_db
        self.max_phase_dev_rad = max_phase_dev_rad


class SpectralCurve(Record):
    __slots__ = ("wavelengths_nm", "reports", "summary")

    def __init__(self, wavelengths_nm: np.ndarray, reports: tuple,
                 summary: SpectralSummary):   # one SplitReport per grid point
        self.wavelengths_nm, self.reports = wavelengths_nm, reports
        self.summary = summary


def _wrap(phase: float) -> float:
    return math.atan2(math.sin(phase), math.cos(phase))


def _summarize(kind: Kind, reports) -> SpectralSummary:
    fractions = np.array([r.fractions for r in reports])
    pairs = np.array([r.pair_fractions for r in reports])
    ideal = TOPOLOGY[kind].ideal_phase_rad
    phase_dev = max(abs(_wrap(r.phase_rel_rad - ideal)) for r in reports)
    return SpectralSummary(
        mean_fractions=fractions.mean(axis=0),
        std_fractions=fractions.std(axis=0),
        mean_pair_fractions=pairs.mean(axis=0),
        worst_crosstalk_db=max(r.crosstalk_db for r in reports),
        max_phase_dev_rad=phase_dev,
    )


def wavelength_grid(lam_min: float, lam_max: float, n_points: int) -> np.ndarray:
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if n_points == 1:
        return np.array([float(lam_min)])
    if not lam_min < lam_max:
        raise ValueError("need lam_min < lam_max")
    return np.linspace(lam_min, lam_max, n_points)


def sweep_wavelength(layout: ArrayLayout, model: CouplingModel, lam_min: float,
                     lam_max: float, n_points: int,
                     opts: PropagationOptions = None) -> SpectralCurve:
    """Propagate the nominal input at each wavelength and report the splits."""
    return sweep_designs([layout], [model], lam_min, lam_max, n_points, opts)[0]


def sweep_designs(layouts, models, lam_min: float, lam_max: float,
                  n_points: int, opts: PropagationOptions = None) -> list:
    """One SpectralCurve per (layout, model) pair over the same grid, with
    all (design, wavelength) points propagated as one batch
    (``propagate_batch``), design by design in order of wavelength."""
    grid = wavelength_grid(lam_min, lam_max, n_points)
    finals = propagate_batch([lay for lay in layouts for _ in grid],
                             [mod for mod in models for _ in grid],
                             np.tile(grid, len(layouts)), opts)
    curves = []
    for i, layout in enumerate(layouts):
        reports = [split_report(final, layout.kind)
                   for final in finals[i * n_points:(i + 1) * n_points]]
        curves.append(SpectralCurve(grid, tuple(reports),
                                    _summarize(layout.kind, reports)))
    return curves


ScanEntry = namedtuple("ScanEntry", "value report valid note", defaults=[""])


def robustness_scan(layout: ArrayLayout, model: CouplingModel, parameter: str,
                    values, lam0: float,
                    opts: PropagationOptions = None) -> list:
    """The split at lam0 for each parameter value, everything else fixed;
    all valid values are propagated as one batch.

    ``parameter`` is one of kappa_ref / rho / detuning (model knobs) or
    alpha / separation / cut_fraction (geometry rebuilds from the layout's
    build parameters; only fsap3 has a cut). Geometrically invalid points
    are marked, not fatal: their ScanEntry has report None and a note.
    """
    if parameter not in SCAN_PARAMETERS:
        raise ValueError(f"parameter must be one of {SCAN_PARAMETERS}")
    if parameter == "cut_fraction" and layout.kind != Kind.FSAP3:
        raise ValueError("cut_fraction scans need an fsap3 layout")
    if parameter in ("alpha", "separation", "cut_fraction") and layout.spec is None:
        raise ValueError("layout carries no build parameters to rebuild from")

    key = {"alpha": "angle_deg", "separation": "outer_separation_um",
           "cut_fraction": "cut_fraction"}.get(parameter)
    notes, members = {}, {}
    for i, value in enumerate(values):
        lay, mod = layout, model
        try:
            if key is None:
                mod = model._replace(**{parameter: float(value)})
            else:
                lay = build_layout(layout.spec._replace(**{key: float(value)}))
            mod.decay_length(lam0)     # fail here rather than in the batch
            members[i] = (lay, mod)
        except (GeometryError, ValueError) as exc:
            notes[i] = str(exc)
    lays, mods = zip(*members.values()) if members else ((), ())
    finals = dict(zip(members, propagate_batch(lays, mods,
                                               [lam0] * len(members), opts)))
    return [ScanEntry(float(value), split_report(finals[i], layout.kind), True)
            if i in finals else ScanEntry(float(value), None, False, notes[i])
            for i, value in enumerate(values)]
