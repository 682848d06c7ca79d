"""Wavelength sweeps and single-parameter robustness scans.

Sweeps are embarrassingly parallel over wavelength but evaluated
sequentially here so results are deterministic and order-independent by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import CouplingModel
from .errors import GeometryError
from .geometry import TOPOLOGY, ArrayLayout, Kind, build_layout
from .propagator import PropagationOptions, propagate
from .analysis import SplitReport, split_report

SCAN_PARAMETERS = ("kappa_ref", "rho", "detuning", "alpha", "separation",
                   "cut_fraction")


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    mean_fractions: np.ndarray
    std_fractions: np.ndarray
    mean_pair_fractions: np.ndarray
    worst_crosstalk_db: float
    max_phase_dev_rad: float


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    wavelengths_nm: np.ndarray
    reports: tuple           # one SplitReport per grid point
    summary: SpectralSummary


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
    grid = wavelength_grid(lam_min, lam_max, n_points)
    reports = []
    for lam in grid:
        traj = propagate(layout, model, lam, opts=opts)
        reports.append(split_report(traj.final, layout.kind))
    return SpectralCurve(grid, tuple(reports), _summarize(layout.kind, reports))


@dataclass(frozen=True, eq=False)
class ScanEntry:
    value: float
    report: SplitReport      # None when the point is invalid
    valid: bool
    note: str = ""


def robustness_scan(layout: ArrayLayout, model: CouplingModel, parameter: str,
                    values, lam0: float,
                    opts: PropagationOptions = None) -> list:
    """One propagation per parameter value with everything else fixed.

    ``parameter`` is one of kappa_ref / rho / detuning (model knobs) or
    alpha / separation / cut_fraction (geometry rebuilds from the layout's
    build parameters). Geometrically invalid points are marked, not fatal.
    """
    if parameter not in SCAN_PARAMETERS:
        raise ValueError(f"parameter must be one of {SCAN_PARAMETERS}")
    if parameter in ("alpha", "separation", "cut_fraction") and layout.spec is None:
        raise ValueError("layout carries no build parameters to rebuild from")

    entries = []
    for value in values:
        lay, mod = layout, model
        try:
            if parameter == "kappa_ref":
                mod = replace(model, kappa_ref=float(value))
            elif parameter == "rho":
                mod = replace(model, rho=float(value))
            elif parameter == "detuning":
                mod = replace(model, detuning=float(value))
            else:
                key = {"alpha": "angle_deg", "separation": "outer_separation_um",
                       "cut_fraction": "cut_fraction"}[parameter]
                lay = build_layout(replace(layout.spec, **{key: float(value)}))
            traj = propagate(lay, mod, lam0, opts=opts)
            entries.append(ScanEntry(float(value),
                                     split_report(traj.final, lay.kind), True))
        except (GeometryError, ValueError) as exc:
            entries.append(ScanEntry(float(value), None, False, str(exc)))
    return entries
