"""Coupling model: geometry and wavelength to Hamiltonian entries.

The evanescent coupling rate between adjacent guides decays exponentially
with their center-to-center separation,

    kappa(d, lam) = kappa_ref * exp(-(d - d_ref) / delta(lam)),
    delta(lam)    = delta_decay * (1 + rho * (lam - lambda0) / lambda0),

so kappa_ref is directly the rate at the reference separation d_ref
(chosen as the near separation at the input facet of the layout being
calibrated). rho > 0 makes longer wavelengths couple more strongly, the
usual trend for larger modes. Units: d in um, lam in nm, rates in 1/mm.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import CalibrationError
from .geometry import ArrayLayout

# Grid points of calibrate_strength propagated per batch. The default
# search finds its point near the 59th, in the second chunk.
CALIBRATION_CHUNK = 32
# Most grid points calibrate_strength accepts (the default grid has 303).
# It bounds points, not work: a folded5 point takes about 30 steps at 0.72
# /mm, 770 at 20 /mm and the whole step budget at 200 /mm (ROADMAP item 2).
CALIBRATION_MAX_POINTS = 5000


class CouplingModel(namedtuple("CouplingModel", "kappa_ref d_ref delta_decay "
                                                "lambda0 rho detuning")):
    """Hamiltonian entries as a function of separation and wavelength.

    Attributes
    ----------
    kappa_ref:
        Coupling rate at the reference separation (1/mm).
    d_ref:
        Reference separation (um).
    delta_decay:
        1/e decay length of kappa versus separation at lambda0 (um).
    lambda0:
        Reference wavelength (nm).
    rho:
        Dimensionless wavelength sensitivity of the decay length.
    detuning:
        Propagation-constant mismatch of the inclined guides (1/mm),
        the diagonal Hamiltonian entry on those guides.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks

    def __new__(cls, kappa_ref: float, d_ref: float, delta_decay: float,
                lambda0: float, rho: float = 1.0, detuning: float = 0.0):
        if kappa_ref < 0:
            raise ValueError("kappa_ref must be non-negative")
        if delta_decay <= 0:
            raise ValueError("delta_decay must be positive")
        if lambda0 <= 0:
            raise ValueError("lambda0 must be positive")
        return super().__new__(cls, kappa_ref, d_ref, delta_decay, lambda0,
                               rho, detuning)

    def decay_length(self, lam: float) -> float:
        """delta(lam) in um; strictly positive on the admissible domain."""
        d = self.delta_decay * (1.0 + self.rho * (lam - self.lambda0) / self.lambda0)
        if d <= 0:
            raise ValueError(
                f"decay length non-positive at lam = {lam} nm (rho = {self.rho})"
            )
        return d

    def kappa(self, d: float, lam: float) -> float:
        """Coupling rate (1/mm) at separation d (um) and wavelength lam (nm)."""
        if d < 0:
            raise ValueError("separation must be non-negative")
        return self.kappa_ref * math.exp(-(d - self.d_ref) / self.decay_length(lam))

    def scaled(self, factor: float) -> "CouplingModel":
        """Same model with kappa_ref multiplied by ``factor``."""
        return self._replace(kappa_ref=self.kappa_ref * factor)


def facet_separations(layout: ArrayLayout):
    """(near, far) separations around the first inclined guide at z = 0."""
    inc = layout.inclined_labels[0]
    d_lo = layout.separation(inc - 1, inc, 0.0)
    d_hi = layout.separation(inc, inc + 1, 0.0)
    return min(d_lo, d_hi), max(d_lo, d_hi)


def calibrate_decay(layout: ArrayLayout, target_ratio: float, lam0: float) -> float:
    """Decay length delta0 making the weak/strong facet coupling ratio equal
    ``target_ratio`` at lam0.

    Closed form: delta0 = (d_far(0) - d_near(0)) / ln(1 / target_ratio),
    unique because the ratio identity kappa(d1)/kappa(d2) =
    exp((d2 - d1)/delta) is independent of kappa_ref. Raises
    CalibrationError when the result is not a positive finite length.
    """
    if not 0 < target_ratio < 1:
        raise CalibrationError("target_ratio must lie in (0, 1)")
    d_near, d_far = facet_separations(layout)
    if d_far == d_near:
        raise CalibrationError(
            "degenerate geometry: equal facet separations admit no decay length"
        )
    delta0 = (d_far - d_near) / math.log(1.0 / target_ratio)
    if not 0 < delta0 < math.inf:
        raise CalibrationError(f"target_ratio {target_ratio} gives decay "
                               f"length {delta0} um")
    return delta0


def calibrated_model(layout: ArrayLayout, target_ratio: float, kappa_ref: float,
                     lam0: float, rho: float = 1.0,
                     detuning: float = 0.0) -> CouplingModel:
    """CouplingModel with delta_decay from calibrate_decay and d_ref pinned to
    the near facet separation, so kappa_ref is the strong input coupling."""
    delta0 = calibrate_decay(layout, target_ratio, lam0)
    d_near, _ = facet_separations(layout)
    return CouplingModel(kappa_ref=kappa_ref, d_ref=d_near, delta_decay=delta0,
                         lambda0=lam0, rho=rho, detuning=detuning)


def calibrate_strength(layout: ArrayLayout, base_model: CouplingModel, lam0: float,
                       crosstalk_target_db: float, kappa_min: float = 0.05,
                       kappa_max: float = 20.0, resolution: float = 0.02,
                       opts=None) -> float:
    """Smallest kappa_ref on a logarithmic grid whose propagated crosstalk at
    lam0 meets ``crosstalk_target_db``.

    The grid ascends from kappa_min by factors of (1 + resolution).
    Crosstalk is not monotone in kappa_ref (facet-mismatch interference), so
    the answer is the first passing grid point, i.e. the smallest point of
    the first contiguous passing run. The points are propagated in order,
    CALIBRATION_CHUNK to a batch, by the rule of ``propagate_batch`` (a
    failed batch is re-solved point by point), and no batch past the first
    pass is solved. Raises CalibrationError with the scanned diagnostic
    curve attached if no grid point passes, and before scanning if the grid
    cannot grow or holds more than CALIBRATION_MAX_POINTS points.
    """
    from .analysis import split_report
    from .propagator import _finals

    if crosstalk_target_db > 0:
        raise CalibrationError("crosstalk_target_db must be <= 0 dB")
    if not 0 < kappa_min < kappa_max:
        raise CalibrationError("need 0 < kappa_min < kappa_max")
    if resolution <= 0 or resolution > 0.02 + 1e-12:
        raise CalibrationError("grid resolution must be in (0, 0.02]")
    if kappa_min * (1.0 + resolution) == kappa_min:
        raise CalibrationError(f"grid from kappa_min = {kappa_min} 1/mm by "
                               f"resolution {resolution} cannot grow")
    n_points = 1 + (math.log(kappa_max) - math.log(kappa_min)) \
        / math.log1p(resolution)
    if n_points > CALIBRATION_MAX_POINTS:
        raise CalibrationError(
            f"grid from kappa_min = {kappa_min} to kappa_max = {kappa_max} "
            f"1/mm at resolution {resolution} has {n_points:.3g} points, "
            f"more than {CALIBRATION_MAX_POINTS}")

    grid, k = [], kappa_min
    while k <= kappa_max * (1 + 1e-12):
        grid.append(k)
        k *= 1.0 + resolution
    members = [(layout, base_model._replace(kappa_ref=k), lam0) for k in grid]
    curve = []
    for k, final in zip(grid, _finals(members, opts, CALIBRATION_CHUNK)):
        curve.append(split_report(final, layout.kind).crosstalk_db)
        if curve[-1] <= crosstalk_target_db:
            return k

    raise CalibrationError(
        f"no kappa_ref in [{kappa_min}, {kappa_max}] 1/mm reaches "
        f"{crosstalk_target_db} dB at {lam0} nm",
        kappa_grid=np.array(grid),
        crosstalk_db=np.array(curve),
    )
