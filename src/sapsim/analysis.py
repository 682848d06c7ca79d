"""Physics extraction: dark states, eigensystems, adiabaticity, splits, loss.

The zero-eigenvalue supermode (dark state) of the nearest-neighbor matrix
has no amplitude on the inclined guides for any detuning:

    3 guides:  (k23, 0, -k12) / sqrt(k12^2 + k23^2)
    5 guides:  (-k23, 0, k12, 0, -k23) / sqrt(k12^2 + 2 k23^2)

Both are exact null vectors of the full matrix including the detuning
diagonal, because those diagonal entries only multiply the zero components.

Both kinds are Lambda systems (Vitanov et al., Rev. Mod. Phys. 89, 015006
(2017)). With a = k12, b = k23, c^2 = 1 (3 guides) or 2 (5), detuning d and
W^2 = a^2 + c^2 b^2, d psi_dark/dz = -theta' (a, 0, c b) / W in the block
[[0, a, 0], [a, d, c b], [0, c b, 0]] (the mirror-even one of 5 guides),
with theta' = c (a b' - b a') / W^2. Its bright supermodes, at
E+- = (d +- sqrt(d^2 + 4 W^2)) / 2, overlap it by |theta'| W / sqrt(W^2 +
E+-^2); the mirror-odd block [[0, a], [a, d]] does not overlap it.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import CouplingModel
from .errors import IntegrationError, Record
from .geometry import TOPOLOGY, ArrayLayout, Kind
from .propagator import UM_PER_MM, StateVector, coupling_chain

CROSSTALK_FLOOR_DB = -120.0
DEGENERACY_GAP = 1e-12


def eigensystem(M: np.ndarray) -> tuple:
    """Exact symmetric eigendecomposition ``(w, V)``: ascending eigenvalues
    and orthonormal eigenvectors as columns."""
    return np.linalg.eigh(M)


def _dark_vectors(k: np.ndarray, undefined=ValueError) -> np.ndarray:
    """Closed-form dark states (s, n) from nearest-neighbor couplings (s, n-1).

    Raises ValueError unless n is 3 or 5, or when a 5-guide sample lacks the
    mirror pattern k34 = k23, k45 = k12 (to 1e-9 relative); raises
    ``undefined(reason)`` when both couplings vanish at a sample, or when a
    squared norm is not a normal float (it overflows or underflows).
    """
    n = k.shape[-1] + 1
    if n not in (3, 5):
        raise ValueError(f"dark state defined for 3 or 5 guides, got {n}")
    k12, k23 = k[:, 0], k[:, 1]
    if np.any((k12 == 0.0) & (k23 == 0.0)):
        raise undefined("dark state undefined: all couplings are zero")
    zero = np.zeros_like(k12)
    if n == 3:
        v = np.stack([k23, zero, -k12], axis=1)
        ref = 0
    else:
        # (k34, k45) against (k23, k12)
        if not np.all(np.isclose(k[:, 2:], k[:, 1::-1], rtol=1e-9, atol=1e-300)):
            raise ValueError("5-guide matrix lacks the mirror coupling pattern")
        v = np.stack([-k23, zero, k12, zero, -k23], axis=1)
        ref = 2
    with np.errstate(over="ignore", under="ignore"):    # checked next
        norm = np.linalg.norm(v, axis=1, keepdims=True)
        # the squared norm must be a normal float: couplings below about
        # 1e-154 have squares that underflow, and their norm is zero,
        # subnormal or inexact
        normal = np.isfinite(norm) & (norm * norm >= np.finfo(float).tiny)
    if not np.all(normal):
        raise undefined("dark state undefined: coupling norm is not a "
                        "normal float")
    v /= norm
    return np.where(v[:, ref:ref + 1] < 0, -v, v)


def dark_state(M: np.ndarray) -> np.ndarray:
    """Normalized zero-eigenvalue supermode of a 3- or 5-guide matrix.

    Constructed from the null-space structure (exact zeros on the inclined
    guides), sign-fixed so the input-guide component (guide 1 for the
    3-guide device, guide 3 for the 5-guide one) is non-negative.
    Raises ValueError when both couplings vanish.
    """
    k = np.diagonal(np.asarray(M, dtype=float), offset=1)
    return _dark_vectors(k[None, :])[0]


class AdiabaticityProfile(Record):
    """Rotation-over-gap metric A(z); smaller is more adiabatic.

    ``flagged`` holds the samples where a supermode came within 1e-12 of the
    dark eigenvalue 0, and ``eigenvalues`` (ascending) and ``dark_states``,
    each (n_samples, n), the supermode data of each sample the metric was
    computed from."""

    __slots__ = ("z_um", "values", "flagged", "eigenvalues", "dark_states")

    def __init__(self, z_um: np.ndarray, values: np.ndarray, flagged: tuple,
                 eigenvalues: np.ndarray = None, dark_states: np.ndarray = None):
        self.z_um, self.values, self.flagged = z_um, values, flagged
        self.eigenvalues, self.dark_states = eigenvalues, dark_states

    @property
    def max_value(self) -> float:
        """The vertex of the parabola through the top sample and its two
        neighbours; the top sample at an end or next to an infinite one."""
        i = int(np.argmax(self.values))
        top = self.values[max(i - 1, 0):i + 2]
        if top.size < 3 or not np.all(np.isfinite(top)):
            return float(self.values[i])
        before, peak, after = top.tolist()
        curvature = 2.0 * peak - before - after    # >= 0 at the top sample
        if curvature == 0.0:
            return peak
        return peak + (after - before) ** 2 / (8.0 * curvature)


def _pair_eigenvalues(half_detuning: float, w: np.ndarray, w2: np.ndarray):
    """Ascending eigenvalues of [[0, w], [w, 2 h]] for h = half_detuning and
    w2 = w^2: h + sign(h) hypot(h, w) cannot cancel, and the other is -w2
    over it (their product), or 0 where w and h both vanish."""
    outer = half_detuning + np.copysign(np.hypot(half_detuning, w),
                                        half_detuning)
    inner = np.divide(-w2, outer, out=np.zeros_like(outer),
                      where=outer != 0.0)
    return np.minimum(outer, inner), np.maximum(outer, inner)


def adiabaticity_margin(layout: ArrayLayout, model: CouplingModel, lam: float,
                        n_samples: int = 512) -> AdiabaticityProfile:
    """A(z) = max over non-dark supermodes k of |<v_k|d psi_dark/dz>| / |E_k|,
    exact at each sample from the closed forms of the module docstring and
    dk_i/dz = -k_i sign(g_i) dslope_i / delta(lam) (g_i = dx0_i + dslope_i z,
    ``ArrayLayout.gaps``). ``eigenvalues`` are [E-, 0, E+] for 3 guides and
    [E-, O-, 0, O+, E+] (O+- mirror-odd) for 5. Samples with a non-dark
    eigenvalue within 1e-12 of 0 are flagged and carry A = inf. Raises
    IntegrationError naming lam where the dark state is undefined (see
    ``_dark_vectors``) or the sample spacing in mm is not a normal float.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    zs = np.linspace(0.0, layout.z_end_um, n_samples)
    dz_mm = (zs[1] - zs[0]) / 1000.0
    if not dz_mm >= np.finfo(float).tiny:     # distinct, evenly spaced z
        raise IntegrationError(f"sample spacing {dz_mm} mm is not a normal "
                               f"float at lam = {lam} nm")
    couplings, _ = coupling_chain([layout], [model], [lam])
    with np.errstate(over="ignore", invalid="ignore"):    # checked next
        k = couplings(zs[:, None, None])[..., 0]
    darks = _dark_vectors(
        k, lambda reason: IntegrationError(f"{reason} at lam = {lam} nm"))

    # dk_i/dz = rate_i k_i in 1/mm, for k12 and k23
    dx0, dslope = (v[:2] for v in layout.gaps)
    rate = np.sign(dx0 + dslope * zs[:, None]) \
        * (-dslope * UM_PER_MM / model.decay_length(lam))
    a, b = k[:, 0], k[:, 1]
    c = 1.0 if layout.n_guides == 3 else math.sqrt(2.0)
    w2 = a * a + (c * b) ** 2
    w, half = np.sqrt(w2), model.detuning / 2.0
    theta_rate = c * (a * b / w2) * (rate[:, 1] - rate[:, 0])
    lo, hi = _pair_eigenvalues(half, w, w2)
    if layout.n_guides == 3:
        eigenvalues = np.column_stack([lo, np.zeros_like(lo), hi])
    else:
        odd_lo, odd_hi = _pair_eigenvalues(half, a, a * a)
        eigenvalues = np.column_stack([lo, odd_lo, np.zeros_like(lo),
                                       odd_hi, hi])
    # the ascending neighbours of the dark 0 are the nearest to it
    mid = layout.n_guides // 2
    degenerate = np.minimum(-eigenvalues[:, mid - 1],
                            eigenvalues[:, mid + 1]) < DEGENERACY_GAP
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the flagged samples are overwritten
        weight = np.maximum(w / (np.hypot(w, lo) * -lo),
                            w / (np.hypot(w, hi) * hi))
        values = np.where(degenerate, np.inf, np.abs(theta_rate) * weight)
    flagged = tuple(int(i) for i in np.flatnonzero(degenerate))
    return AdiabaticityProfile(zs, values, flagged, eigenvalues, darks)


class SplitReport(Record):
    """Power bookkeeping of one output state.

    fractions sum to 1 over all guides; pair_fractions renormalize the two
    intended outputs to each other; crosstalk is the central-guide fraction
    in dB (floored at -120 dB); phase_rel is arg(a_out1 * conj(a_out2))
    wrapped to (-pi, pi].
    """

    __slots__ = ("fractions", "crosstalk_db", "phase_rel_rad",
                 "pair_fractions")

    def __init__(self, fractions: np.ndarray, crosstalk_db: float,
                 phase_rel_rad: float, pair_fractions: np.ndarray):
        self.fractions, self.crosstalk_db = fractions, crosstalk_db
        self.phase_rel_rad, self.pair_fractions = phase_rel_rad, pair_fractions


def split_report(state: StateVector, kind: Kind) -> SplitReport:
    powers = state.powers()
    total = float(powers.sum())
    if total == 0.0:
        raise ValueError("total power is zero")
    fractions = powers / total

    topology = TOPOLOGY[kind]
    central = fractions[topology.central_label - 1]
    if central > 0.0:
        crosstalk = max(10.0 * math.log10(central), CROSSTALK_FLOOR_DB)
    else:
        crosstalk = CROSSTALK_FLOOR_DB

    i, j = (label - 1 for label in topology.output_labels)
    a_i, a_j = state.amplitudes[i], state.amplitudes[j]
    phase = float(np.angle(a_i * np.conj(a_j)))
    if phase <= -math.pi:
        phase = math.pi

    pair_total = fractions[i] + fractions[j]
    if pair_total > 0:
        pair = np.array([fractions[i] / pair_total, fractions[j] / pair_total])
    else:
        pair = np.array([np.nan, np.nan])
    return SplitReport(fractions, crosstalk, phase, pair)


def loss_corrected_transfer(raw_output_powers, length_cm: float,
                            loss_db_per_cm: float, coupling_eff: float,
                            facet_transmission: float) -> float:
    """Undo the measurement-chain attenuation and return the transferred
    fraction.

    ``raw_output_powers`` are the measured powers at the intended output
    ports for unit launched power; the correction divides their sum by
    10^(-loss*length/10) * coupling_eff * facet_transmission.
    """
    if loss_db_per_cm < 0:
        raise ValueError("loss must be non-negative")
    if not 0 < coupling_eff <= 1:
        raise ValueError("coupling_eff must lie in (0, 1]")
    if not 0 < facet_transmission <= 1:
        raise ValueError("facet_transmission must lie in (0, 1]")
    attenuation = (10.0 ** (-loss_db_per_cm * length_cm / 10.0)
                   * coupling_eff * facet_transmission)
    return float(np.sum(raw_output_powers) / attenuation)
