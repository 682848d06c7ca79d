"""A frozen copy of the batched DOP853 route as it stood before the stage
arithmetic moved into a per-solve workspace: the S-partials interface
(``fun(ts)`` returns one function of the state per point), the
allocating ``apply`` and the allocating trial step. The workspace route
must reproduce its finals bit for bit (tests/test_batch.py); nothing in
``src/`` imports this file.
"""

from functools import partial

import numpy as np

from sapsim.dop853 import (_C, _COLUMNS, _SUMS, _TRIAL_ERRSTATE,
                           ERROR_EXPONENT, MAX_FACTOR, MAX_STEPS, MIN_FACTOR,
                           N_STAGES, SAFETY, TOO_SMALL_STEP)
from sapsim.errors import IntegrationError
from sapsim.propagator import UM_PER_MM, nominal_input

ROW_B, ROW_E5, ROW_E3 = 11, 12, 13      # rows of _SUMS


def rates(layouts, models, lams):
    """The batch RHS in units of each member's span: ``fun(ts)``."""
    dx0 = np.array([lay.gaps[0] for lay in layouts])
    dslope = np.array([lay.gaps[1] for lay in layouts])
    delta_lam, kref, dref = np.array(
        [[[mod.decay_length(lam)], [mod.kappa_ref], [mod.d_ref]]
         for mod, lam in zip(models, lams)]).transpose(1, 0, 2)
    diagonal = np.array([[mod.detuning if label in lay.inclined_labels else 0.0
                          for label in range(1, lay.n_guides + 1)]
                         for lay, mod in zip(layouts, models)])
    span_um = np.array([[lay.z_end_um] for lay in layouts])
    gain = 1j * span_um / UM_PER_MM

    def couplings(z_um):
        return kref * np.exp((dref - np.abs(dx0 + dslope * z_um)) / delta_lam)

    def apply(k, a):
        out = diagonal * a
        out[..., :-1] += k * a[..., 1:]
        out[..., 1:] += k * a[..., :-1]
        return gain * out

    return lambda ts: [partial(apply, k) for k in couplings(ts * span_um)]


def _member_rms(x):
    return np.sqrt(np.mean(x.real ** 2 + x.imag ** 2, axis=1))


def initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _member_rms(y0 / scale)
    d1 = _member_rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.fmin(h0, interval_length)
    y1 = y0 + (h0 * direction)[:, None] * f0
    [rate] = fun((t0 + h0 * direction)[None, :, None])
    f1 = rate(y1)
    d2 = _member_rms((f1 - f0) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.fmax(1e-6, h0 * 1e-3),
                  (0.01 / np.fmax(d1, d2)) ** (1 / (7 + 1)))
    return min(np.nanmin(np.fmin(100 * h0, h1), initial=np.inf),
               interval_length)


def trial_step(fun, t, y, f, h, sums, rtol, atol):
    rates = fun((t + _C[1:N_STAGES + 1] * h)[:, None, None])
    np.multiply(_COLUMNS[0][2], f, out=sums)
    sums += 0
    for s, (lo, hi, w) in enumerate(_COLUMNS[1:], start=1):
        k = rates[s - 1](y + sums[s - 1] * h)
        sums[lo:hi] += w * k
    y_new = y + h * sums[ROW_B]
    f_new = rates[-1](y_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    err5 = sums[ROW_E5] / scale
    err3 = sums[ROW_E3] / scale
    err5_norm_2 = np.sum(err5.real ** 2 + err5.imag ** 2, axis=1)
    err3_norm_2 = np.sum(err3.real ** 2 + err3.imag ** 2, axis=1)
    denom = err5_norm_2 + 0.01 * err3_norm_2
    norms = np.abs(h) * err5_norm_2 / np.sqrt(denom * scale.shape[1])
    norms[denom == 0] = 0.0
    return y_new, f_new, norms.max()


def solve(fun, y, rtol, atol):
    """The batch branch of ``dop853.solve`` over [0, 1]: (finals, nfev)."""
    nfev = 0

    def counted(ts):
        nonlocal nfev
        nfev += len(ts)
        return fun(ts)

    t0, t_bound, direction = 0.0, 1.0, np.sign(1.0)
    sums = np.empty((len(_SUMS),) + y.shape, dtype=y.dtype)
    with np.errstate(**_TRIAL_ERRSTATE):
        f = counted(np.full((1, 1, 1), t0))[0](y)
        h_abs = initial_step(counted, t0, y, t_bound, f, direction, rtol, atol)
        t, n_trials = t0, 0
        while True:
            min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            step_rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(TOO_SMALL_STEP)
                if n_trials == MAX_STEPS:
                    raise IntegrationError("step budget exhausted")
                n_trials += 1
                h = h_abs * direction
                t_new = t + h
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = np.abs(h)
                y_new, f_new, error_norm = trial_step(counted, t, y, f, h,
                                                      sums, rtol, atol)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR,
                                     SAFETY * error_norm ** ERROR_EXPONENT)
                    if step_rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                step_rejected = True
            t, y, f = t_new, y_new, f_new
            if direction * (t - t_bound) >= 0:
                return y, nfev


def finals(layouts, models, lams, rtol=1e-10, atol=1e-12):
    """Final states (B, n) of the nominal inputs, as ``batch_finals`` took
    them before the workspace."""
    y0 = np.array([nominal_input(lay, lam).amplitudes
                   for lay, lam in zip(layouts, lams)])
    return solve(rates(layouts, models, lams), y0, rtol, atol)[0]
