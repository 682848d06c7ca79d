"""Hamiltonian assembly and propagation of -i da/dz = H(z) a.

H is real symmetric with nearest-neighbor couplings from the layout and
coupling model (1/mm), zero diagonal on straight guides and the detuning on
inclined ones. Evolution is therefore unitary; the integrators work in mm
internally while the public surface stays in um.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import dop853
from .coupling import CouplingModel
from .errors import IntegrationError, Record
from .geometry import ArrayLayout

UM_PER_MM = 1000.0
# Members per batched solve. Its workspace, 35 (n, B) and 14 (n - 1, B)
# complex and 12 (n - 1, B) float arrays, is 17 MB at n = 5 (21 MB at peak).
BATCH_SIZE = 4096
# Oracle slices decomposed per batched eigh call; bounds its memory.
_ORACLE_BATCH = 4096


class Hamiltonian(Record):
    """Coupled-mode matrix sampled at one position."""

    __slots__ = ("matrix", "z_um")

    def __init__(self, matrix: np.ndarray, z_um: float):
        self.matrix, self.z_um = matrix, z_um   # (n, n) real symmetric, 1/mm


class StateVector(Record):
    """Complex modal amplitudes at one position and wavelength."""

    __slots__ = ("amplitudes", "z_um", "wavelength_nm")

    def __init__(self, amplitudes: np.ndarray, z_um: float,
                 wavelength_nm: float):
        self.amplitudes = amplitudes     # (n,) complex
        self.z_um, self.wavelength_nm = z_um, wavelength_nm

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def powers(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


IntegratorStats = namedtuple("IntegratorStats",
                             "n_steps n_rhs_evals max_norm_drift")


class Trajectory(Record):
    """Sampled evolution plus the context needed to rerun it."""

    __slots__ = ("z_um", "amplitudes", "stats", "layout", "model",
                 "wavelength_nm", "options")

    def __init__(self, z_um: np.ndarray, amplitudes: np.ndarray, stats,
                 layout: ArrayLayout, model: CouplingModel,
                 wavelength_nm: float, options):
        self.z_um = z_um                  # (n_samples,) strictly increasing
        self.amplitudes = amplitudes      # (n_samples, n) complex, one row per z
        self.stats, self.layout, self.model = stats, layout, model
        self.wavelength_nm, self.options = wavelength_nm, options

    @property
    def final(self) -> StateVector:
        return StateVector(self.amplitudes[-1], float(self.z_um[-1]),
                           self.wavelength_nm)


class PropagationOptions(namedtuple("PropagationOptions", "rtol atol")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks

    def __new__(cls, rtol: float = 1e-10, atol: float = 1e-12):
        # a NaN tolerance would leave the step control shrinking forever
        if not (0 < rtol < np.inf and 0 <= atol < np.inf):
            raise ValueError("need finite tolerances, rtol > 0 and atol >= 0")
        return super().__new__(cls, rtol, atol)


def unit_state(n: int, label: int, lam: float, z_um: float = 0.0) -> StateVector:
    """Basis state with unit amplitude in the given 1-based guide."""
    a = np.zeros(n, dtype=complex)
    a[label - 1] = 1.0
    return StateVector(a, z_um, lam)


def nominal_input(layout: ArrayLayout, lam: float) -> StateVector:
    """Unit power in the layout's input guide."""
    return unit_state(layout.n_guides, layout.input_label, lam)


def coupling_chain(layouts, models, lams):
    """The entries of H for B systems: ``(couplings, diagonal)``.

    Member b is (layouts[b], models[b], lams[b]), wavelengths in nm; the
    layouts share one guide count n. One system is a batch of one. Every
    per-member quantity below (dx0, dslope, delta(lam), kappa_ref, d_ref and
    the diagonal) carries a trailing member axis, so that a batch's
    neighbours are contiguous rows.

    ``couplings(z_um)`` returns the n-1 nearest-neighbor rates (1/mm)

        k_bi(z) = kappa_ref_b * exp(-(|dx0_bi + dslope_bi * z| - d_ref_b)
                                    / delta_b(lam_b)),

    shaped (n-1, B) for a scalar z or a (B,) array of per-member
    positions, and (S, n-1, B) for S positions given as an (S, 1, 1) or
    (S, 1, B) array. ``couplings(z_um, x, out)`` evaluates in place in the
    float array x and writes the result to ``out`` (float or complex),
    both of the result's shape.
    ``diagonal``, (n, B), holds the detuning on the inclined guides and
    zero elsewhere.
    """
    members = list(zip(layouts, models, lams))
    if len({lay.n_guides for lay, _, _ in members}) > 1:
        raise ValueError("a batch needs one guide count")
    dx0, dslope = (np.array([lay.gaps[i] for lay, _, _ in members]).T.copy()
                   for i in (0, 1))
    delta_lam, kref, dref = np.array(
        [[mod.decay_length(lam), mod.kappa_ref, mod.d_ref]
         for _, mod, lam in members]).T.copy()[:, None]
    diagonal = np.array([[mod.detuning if label in lay.inclined_labels else 0.0
                          for label in range(1, lay.n_guides + 1)]
                         for lay, mod, _ in members]).T.copy()

    def couplings(z_um, x=None, out=None):
        # kref * exp((dref - |dx0 + dslope z|) / delta), in place in x
        x = np.multiply(dslope, z_um, x)
        np.abs(np.add(dx0, x, x), x)
        np.exp(np.divide(np.subtract(dref, x, x), delta_lam, x), x)
        return np.multiply(kref, x, out)

    return couplings, diagonal


def tridiagonal(k: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrices (..., n, n) from couplings (..., n-1)
    and one diagonal (n,)."""
    n = diagonal.size
    H = np.zeros(k.shape[:-1] + (n * n,))
    H[..., 1::n + 1] = k      # the flat positions of H[i, i + 1]
    H[..., n::n + 1] = k      # H[i + 1, i]
    H[..., ::n + 1] = diagonal
    return H.reshape(k.shape[:-1] + (n, n))


@lru_cache(maxsize=16)
def _system_chain(layout: ArrayLayout, model: CouplingModel, lam: float):
    """coupling_chain of one system, kept for the next call at another z
    (H along a device); a layout is keyed by identity. The diagonal is
    read-only, as every caller with the same key gets it."""
    couplings, diagonal = coupling_chain([layout], [model], [lam])
    diagonal.flags.writeable = False
    return couplings, diagonal[:, 0]


def hamiltonian_at(layout: ArrayLayout, model: CouplingModel, z: float,
                   lam: float) -> Hamiltonian:
    """Coupled-mode matrix at position z (um) and wavelength lam (nm)."""
    layout._check_z(z)
    couplings, diagonal = _system_chain(layout, model, lam)
    return Hamiltonian(tridiagonal(couplings(z)[:, 0], diagonal), z)


def _rhs(layouts, models, lams, span_um):
    """da/dt = i (span/1 mm) H(t span) a for the members (as in
    coupling_chain), applied without forming H; t is z in units of the
    span. A scalar ``span_um`` is one system, with a 1-D state, stepping in
    mm (span UM_PER_MM): the result is ``rhs(t, a)``. A (1, B) array is a
    batch, with an (n, B) state, stepping in each member's unit span (span
    z_end), so that members of any length step together: the result is
    ``dop853.solve``'s batch interface, ``bind(a)``, which makes the
    buffers of one solve and returns its ``(at, rate)``.

    Raises IntegrationError, naming the first such member's wavelength,
    when some member's H is not finite at either end ("non-finite
    Hamiltonian at lam = ... nm") or its length is 0 mm in floating point.
    Couplings are monotone in z (guides never cross), so finite ends bound
    every interior value. One check per propagation keeps the integrator
    from searching forever for a step on NaN input. A batch would step a
    0 mm device in units of z_end; the length check makes it fail as it
    fails alone, so both routes accept the same devices.
    """
    couplings, diagonal = coupling_chain(layouts, models, lams)
    z_end_um = np.array([lay.z_end_um for lay in layouts])
    with np.errstate(over="ignore", invalid="ignore"):    # checked next
        ends = np.vstack([couplings(0.0), couplings(z_end_um), diagonal])
    finite = np.isfinite(ends).all(axis=0)
    if not finite.all():
        lam = lams[np.argmin(finite)]
        raise IntegrationError(f"non-finite Hamiltonian at lam = {lam} nm")
    zero_length = z_end_um / UM_PER_MM == 0.0
    if zero_length.any():
        i = np.argmax(zero_length)
        raise IntegrationError(f"device length {layouts[i].z_end_um} um is "
                               f"0 mm in floating point at lam = {lams[i]} nm")
    gain = 1j * span_um / UM_PER_MM
    if np.ndim(span_um) == 0:
        diagonal = diagonal[:, 0]

        def apply(k, a):
            out = diagonal * a
            out[..., :-1] += k * a[..., 1:]
            out[..., 1:] += k * a[..., :-1]
            return gain * out

        return lambda t, a: apply(couplings(t * span_um)[:, 0], a)
    # A batch does what apply does, operation by operation, into buffers;
    # the diagonal, gain and couplings are stored as complex, the values
    # numpy would cast them to for the products with a complex state.
    diagonal = diagonal.astype(complex)
    gain = np.broadcast_to(gain, diagonal.shape).copy()

    def bind(a):
        (n, B), S = a.shape, dop853.N_STAGES
        z, x = np.empty((S, 1, B)), np.empty((S, n - 1, B))
        k = np.empty((S, n - 1, B), dtype=complex)
        # at(ts) fills all S rows of k; one point (a (1, 1, 1) or (1, 1, B)
        # ts) fills each row with it
        rows, below, above = tuple(k), a[:-1], a[1:]
        from_below, from_above = np.empty((2, n - 1, B), dtype=complex)
        acc = np.empty_like(a)
        lower, upper = acc[:-1], acc[1:]

        def at(ts):
            couplings(np.multiply(ts, span_um, z), x, k)

        def rate(s, out):
            np.multiply(diagonal, a, acc)
            np.multiply(rows[s], below, from_below)
            np.multiply(rows[s], above, from_above)
            np.add(lower, from_above, lower)
            np.add(upper, from_below, upper)
            np.multiply(gain, acc, out)

        return at, rate

    return bind


def batch_finals(layouts, models, lams, opts: PropagationOptions = None) -> list:
    """Final states of the nominal input for B systems, from one batched
    DOP853 solve (see ``dop853``) of all of them.

    Raises IntegrationError when the solve fails. ``_finals`` is the one
    place that cuts members into such solves and re-solves a failed one.
    """
    opts = opts or PropagationOptions()
    rhs = _rhs(layouts, models, lams,
               np.array([[lay.z_end_um for lay in layouts]]))
    a0 = np.array([nominal_input(lay, lam).amplitudes
                   for lay, lam in zip(layouts, lams)]).T.copy()
    sol = dop853.solve(rhs, 0.0, 1.0, a0, opts.rtol, opts.atol)
    return [StateVector(a, lay.z_end_um, lam)
            for a, lay, lam in zip(sol.y.T, layouts, lams)]


def _finals(members, opts, size):
    """Final states of the nominal input for the (layout, model, lam)
    members, in order. The members are cut in order into ``batch_finals``
    solves of at most ``size``, and a solve runs only when its first member
    is asked for. When a solve fails, its members are propagated one at a
    time, so the first failing member raises the IntegrationError
    ``propagate`` would."""
    for first in range(0, len(members), size):
        chunk = members[first:first + size]
        try:
            finals = batch_finals(*zip(*chunk), opts)
        except IntegrationError:
            finals = (propagate(*member, opts=opts).final for member in chunk)
        yield from finals


def propagate_batch(layouts, models, lams,
                    opts: PropagationOptions = None) -> list:
    """Final states of the nominal input for a batch of systems.

    Member b is (layouts[b], models[b], lams[b]); all layouts share one
    guide count. The members are solved by ``_finals`` in solves of at
    most BATCH_SIZE; the result agrees with ``propagate`` member by member
    to roundoff at the tolerance level. Members of one solve share its
    step sequence, so a member's roundoff depends on which others are in
    its solve. The first failing member raises the IntegrationError
    ``propagate`` would.
    """
    members = list(zip(layouts, models, [float(v) for v in lams],
                       strict=True))
    return list(_finals(members, opts, BATCH_SIZE))


def _solve(layout: ArrayLayout, model: CouplingModel, lam: float, a0,
           opts: PropagationOptions, backward=False, dense=False):
    """DOP853 (``dop853.solve``, bit-identical to scipy's ``solve_ivp``)
    over the device, from z_end back to 0 when ``backward``. Raises
    IntegrationError for a non-finite H or a device length that underflows
    to 0 mm (both from ``_rhs``), a non-finite start state, or a step
    underflow."""
    rhs = _rhs([layout], [model], [lam], UM_PER_MM)
    if not np.all(np.isfinite(a0)):
        raise IntegrationError(f"non-finite input state at lam = {lam} nm")
    z_end_mm = layout.z_end_um / UM_PER_MM
    t0, t1 = (z_end_mm, 0.0) if backward else (0.0, z_end_mm)
    try:
        return dop853.solve(rhs, t0, t1, a0, opts.rtol, opts.atol,
                            dense_output=dense)
    except IntegrationError as exc:
        what = "backward propagation failed" if backward \
            else f"propagation failed at lam = {lam} nm"
        raise IntegrationError(f"{what}: {exc}") from None


def propagate(layout: ArrayLayout, model: CouplingModel, lam: float,
              state: StateVector = None, opts: PropagationOptions = None,
              n_samples: int = 2) -> Trajectory:
    """Integrate -i da/dz = H(z) a from z = 0 to the layout end.

    ``state`` defaults to ``nominal_input(layout, lam)``. The returned
    trajectory holds ``n_samples`` equally spaced samples, the first at
    z = 0 and the last at z_end; the default keeps the two ends only. Dense
    output is built only when interior samples are asked for; it does not
    change the integrator's steps, so the final state is the same either
    way, but its extra stages count in ``n_rhs_evals``. ``max_norm_drift``
    is taken over the integrator's step points and the samples.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    opts = opts or PropagationOptions()
    state = state if state is not None else nominal_input(layout, lam)
    a0 = np.asarray(state.amplitudes, dtype=complex)
    dense = n_samples > 2
    sol = _solve(layout, model, lam, a0, opts, dense=dense)

    zs_mm = np.linspace(0.0, layout.z_end_um / UM_PER_MM, n_samples)
    ys = sol.sol(zs_mm) if dense else np.empty((a0.size, 2), dtype=complex)
    ys[:, 0] = a0                 # dense output is exact at the knots anyway
    ys[:, -1] = sol.y[:, -1]
    norm0 = np.linalg.norm(a0)
    norms = np.linalg.norm(np.hstack([ys, sol.y]), axis=0)
    stats = IntegratorStats(
        n_steps=len(sol.t) - 1,
        n_rhs_evals=int(sol.nfev),
        max_norm_drift=float(np.max(np.abs(norms - norm0))),
    )
    return Trajectory(zs_mm * UM_PER_MM, np.ascontiguousarray(ys.T), stats,
                      layout, model, lam, opts)


def propagate_oracle(layout: ArrayLayout, model: CouplingModel, lam: float,
                     state: StateVector, n_slices: int) -> StateVector:
    """Piecewise-constant reference propagator.

    Splits [0, z_end] into n_slices slices and applies exp(i H(z_mid) dz)
    per slice through the exact eigendecomposition of the small real
    symmetric matrix. Exactly norm-preserving; second-order accurate in the
    slice width. Independent of the adaptive integrator by construction.
    Slices are decomposed in batches of at most _ORACLE_BATCH.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")
    couplings, diagonal = coupling_chain([layout], [model], [lam])
    z_end_mm = layout.z_end_um / UM_PER_MM
    dz = z_end_mm / n_slices
    a = np.asarray(state.amplitudes, dtype=complex).copy()
    for first in range(0, n_slices, _ORACLE_BATCH):
        i = np.arange(first, min(first + _ORACLE_BATCH, n_slices))
        z_um = ((i + 0.5) * dz * UM_PER_MM)[:, None, None]
        w, V = np.linalg.eigh(tridiagonal(couplings(z_um)[..., 0],
                                          diagonal[:, 0]))
        steps = (V * np.exp(1j * w * dz)[:, None, :]) @ V.transpose(0, 2, 1)
        for step in steps:
            a = step @ a
    return StateVector(a, layout.z_end_um, lam)


def backpropagate_check(trajectory: Trajectory) -> float:
    """Integrate the final state backward and return the Euclidean distance
    to the original input; small residuals certify the forward solution."""
    sol = _solve(trajectory.layout, trajectory.model, trajectory.wavelength_nm,
                 trajectory.amplitudes[-1], trajectory.options, backward=True)
    return float(np.linalg.norm(sol.y[:, -1] - trajectory.amplitudes[0]))
