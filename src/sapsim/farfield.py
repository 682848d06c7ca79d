"""Two-slit style far-field interferogram of the output facet.

Fraunhofer model: each emitting guide is a point source with a common
Gaussian angular envelope,

    I(theta) = |sum_j a_j exp(i (2 pi / lam) x_j sin theta)|^2
               * exp(-2 (pi w_m sin theta / lam)^2).

The central contrast I(0) / (sum_j |a_j|)^2 compares the on-axis intensity
with the coherent in-phase bound, so for two equal emitters it equals
cos^2(dphi/2) exactly; it discriminates in-phase (bright center) from
opposite-phase (dark center) outputs.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import IntegrationError, Record
from .geometry import ArrayLayout
from .propagator import StateVector

BRIGHT_THRESHOLD = 0.9
DARK_THRESHOLD = 0.1
DEFAULT_WAIST_UM = 3.0            # waveguide half-width
DEFAULT_CENTRAL_CUTOFF = 0.05     # central-guide power fraction for inclusion


class Fringe(str, Enum):
    BRIGHT_CENTER = "BRIGHT_CENTER"
    DARK_CENTER = "DARK_CENTER"
    INTERMEDIATE = "INTERMEDIATE"


class FarFieldPattern(Record):
    __slots__ = ("angles_rad", "intensity", "central_contrast",
                 "fringe_spacing_rad")

    def __init__(self, angles_rad: np.ndarray, intensity: np.ndarray,
                 central_contrast: float, fringe_spacing_rad: float):
        self.angles_rad = angles_rad
        self.intensity = intensity      # normalized to its grid maximum
        self.central_contrast = central_contrast   # I(0) / in-phase bound
        self.fringe_spacing_rad = fringe_spacing_rad   # of the central maxima


def farfield_pattern(amplitudes, positions_um, wavelength_nm: float,
                     mode_waist_um: float = DEFAULT_WAIST_UM,
                     theta_max_rad: float = 0.15,
                     n_points: int = 2001) -> FarFieldPattern:
    """Interferogram of point emitters at ``positions_um`` with complex
    ``amplitudes`` on a symmetric angle grid.

    Raises ValueError for inputs outside that scope, and IntegrationError
    when the wavelength is 0 um in floating point or the pattern is not
    finite, or zero at every grid angle (the envelope underflows).
    """
    a = np.asarray(amplitudes, dtype=complex)
    x = np.asarray(positions_um, dtype=float)
    if a.shape != x.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need matching 1-d amplitudes/positions with >= 2 emitters")
    if np.all(a == 0):
        raise ValueError("all emitter amplitudes are zero")
    if mode_waist_um <= 0:
        raise ValueError("mode waist must be positive")
    if n_points < 3:
        raise ValueError("n_points must be at least 3")

    lam_um = wavelength_nm / 1000.0
    if lam_um == 0.0:
        raise IntegrationError(f"wavelength {wavelength_nm} nm is 0 um in "
                               "floating point")
    theta = np.linspace(-theta_max_rad, theta_max_rad, n_points)
    sin_t = np.sin(theta)
    # an envelope exponent that overflows is exp(-inf) = 0, the limit; a
    # phase that overflows leaves NaN, checked next
    with np.errstate(over="ignore", invalid="ignore"):
        carrier = np.abs(np.exp(1j * (2 * np.pi / lam_um) * np.outer(sin_t, x)) @ a) ** 2
        envelope = np.exp(-2.0 * (np.pi * mode_waist_um * sin_t / lam_um) ** 2)
        raw = carrier * envelope
    if not (raw.max() > 0 and np.isfinite(raw).all()):
        raise IntegrationError("far field is not finite, or zero at every grid "
                               f"angle, at lam = {wavelength_nm} nm")
    coherent_bound = float(np.sum(np.abs(a))) ** 2
    contrast = float(np.abs(np.sum(a)) ** 2 / coherent_bound)
    intensity = raw / raw.max()

    # Fringe spacing is read off the interference carrier: the emitter
    # envelope is common to all guides and drags apparent maxima inward.
    return FarFieldPattern(theta, intensity, contrast,
                           _central_fringe_spacing(theta, carrier))


def _central_fringe_spacing(theta: np.ndarray, intensity: np.ndarray) -> float:
    """Spacing of the pair of adjacent maxima whose midpoint is nearest the
    axis; the sin(theta) distortion of outer fringes is thereby avoided."""
    interior = (intensity[1:-1] > intensity[:-2]) & (intensity[1:-1] >= intensity[2:])
    peaks = theta[1:-1][interior]
    if peaks.size < 2:
        return float("nan")
    diffs = np.diff(peaks)
    mids = 0.5 * (peaks[:-1] + peaks[1:])
    return float(diffs[np.argmin(np.abs(mids))])


def classify_fringe(pattern: FarFieldPattern) -> Fringe:
    """Bucket the central contrast: >= 0.9 bright, <= 0.1 dark, else between."""
    if pattern.central_contrast >= BRIGHT_THRESHOLD:
        return Fringe.BRIGHT_CENTER
    if pattern.central_contrast <= DARK_THRESHOLD:
        return Fringe.DARK_CENTER
    return Fringe.INTERMEDIATE


def facet_emitters(state: StateVector, layout: ArrayLayout,
                   include_central_above: float = DEFAULT_CENTRAL_CUTOFF):
    """Amplitudes and facet positions of the emitting guides.

    The two output guides always emit; the central guide joins as a third
    emitter when its power fraction exceeds the cutoff (the ideal output
    keeps a percent-level residual there which barely moves the pattern,
    but a poorly adiabatic device's residual must show up).
    Returns (amplitudes, positions_um) ordered by position; raises
    IntegrationError, naming the wavelength, if fewer than two carry light.
    """
    powers = state.powers()
    fractions = powers / powers.sum()
    labels = list(layout.output_labels)
    if fractions[layout.central_label - 1] > include_central_above:
        labels.append(layout.central_label)
    labels.sort(key=lambda lab: layout.position(lab, layout.z_end_um))
    amps = np.array([state.amplitudes[lab - 1] for lab in labels])
    if np.count_nonzero(amps) < 2:
        raise IntegrationError("fewer than two emitters carry light at lam = "
                               f"{state.wavelength_nm} nm")
    pos = np.array([layout.position(lab, layout.z_end_um) for lab in labels])
    return amps, pos
