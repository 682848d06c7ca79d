"""The benchmark's own correctness reference and output gates.

The reference integrates -i da/dz = H(z) a with scipy's DOP853 at
rtol 1e-10, building H from the public ``sapsim.hamiltonian_at``. It does
not go through ``sapsim.propagate``, so it stays the reference whichever
route the package uses to propagate.
"""

from __future__ import annotations

import math

import numpy as np

# The acceptance suite's bound on agreement with an independent propagator.
AMPLITUDE_BOUND = 1.0e-6
# Fractions are |a|^2 of a unit vector, so they inherit the amplitude bound.
FRACTION_TOL = 4.0 * AMPLITUDE_BOUND
SUM_TOL = 1.0e-9
PHASE_TOL = 1.0e-6
# Output phase of the nominal input on each device: exact by the bipartite
# structure of H, whatever the geometry and wavelength.
IDEAL_PHASE = {"folded5": 0.0, "fsap3": math.pi}


def reference_final(layout, model, lam, rtol=1e-10, atol=1e-12):
    """Output amplitudes for the nominal input (guide 3 for folded5,
    guide 1 otherwise)."""
    # Imported here so that loading this module does not load
    # scipy.integrate into a process whose import time is being measured.
    from scipy.integrate import solve_ivp
    from sapsim import hamiltonian_at

    n = layout.n_guides
    a0 = np.zeros(n, dtype=complex)
    a0[(3 if layout.kind.value == "folded5" else 1) - 1] = 1.0
    z_end = layout.z_end_um

    def rhs(z_mm, a):
        z = min(max(z_mm * 1000.0, 0.0), z_end)
        return 1j * (hamiltonian_at(layout, model, z, lam).matrix @ a)

    sol = solve_ivp(rhs, (0.0, z_end / 1000.0), a0, method="DOP853",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def phase_error(phase, kind):
    d = phase - IDEAL_PHASE[kind]
    return abs(math.atan2(math.sin(d), math.cos(d)))


def invariant_errors(kind, fractions, phase, where):
    """Messages for broken structural invariants of one output."""
    errors = []
    total = float(np.sum(fractions))
    if not abs(total - 1.0) <= SUM_TOL:
        errors.append(f"{where}: fractions sum to {total!r}")
    if not phase_error(phase, kind) <= PHASE_TOL:
        errors.append(f"{where}: output phase {phase!r} is not "
                      f"{IDEAL_PHASE[kind]!r} for {kind}")
    return errors


def amplitude_errors(program, reference, where):
    """(max |da|, messages) for program amplitudes against the reference."""
    da = float(np.max(np.abs(np.asarray(program) - np.asarray(reference))))
    if not da <= AMPLITUDE_BOUND:
        return da, [f"{where}: max |da| = {da:.3e} exceeds {AMPLITUDE_BOUND:g}"]
    return da, []


def fraction_errors(program, reference, where):
    ref = np.abs(np.asarray(reference)) ** 2
    ref = ref / ref.sum()
    worst = float(np.max(np.abs(np.asarray(program) - ref)))
    if not worst <= FRACTION_TOL:
        return [f"{where}: fractions differ from the reference by {worst:.3e}"]
    return []
