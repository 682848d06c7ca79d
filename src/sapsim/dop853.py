"""Explicit Runge-Kutta 8(5,3) integrator (DOP853) with dense output.

A numpy-only transcription of the code paths of scipy's
``solve_ivp(method="DOP853")`` (scipy 1.17) that sapsim uses: scalar
rtol/atol, complex state, forward or backward spans, no events,
unbounded step size. Every floating-point operation is the one scipy
performs, with the same ``np.dot`` shapes and the same order, so the step
points, states, RHS count and dense samples are bit-identical to scipy's;
``tests/test_dop853.py`` checks this against scipy itself. Importing this
module costs nothing beyond numpy, where importing scipy's ODE package
pulls in about 0.6 s of unrelated modules (quadrature, special functions).

``solve`` reads the scope from the rank of the start state: a 1-D state
of n components is one system, in scipy's scope; a 2-D (n, B) state is a
batch of B independent systems, one per column, stepped together, so that
Python overhead is paid once per step, not per system. Each member keeps its
own error norm and its own initial-step estimate; the batch steps with
the largest norm and the smallest estimate, so no member is resolved more
coarsely than it would be alone. scipy has no batch mode, so batches are
not bit-identical to anything; they differ from per-system solves by
roundoff at the tolerance level. Every solve stops with IntegrationError
after MAX_STEPS trial steps.

A batch step costs a fixed number of numpy calls per stage, whatever the
batch size, each writing with a positional ``out`` into a workspace made
once per solve (_batch_start) or into buffers the RHS binds to it. The
weights of stages 1-11, of the new state and of the two error estimates
form one 14-row table whose nonzero rows in each column are one
contiguous run (_COLUMNS), so each stage enters every later sum as soon as
it is known. Each sum still gets its terms element by element, in order
of stage and without the zero weights, so a member's arithmetic does not
depend on the others, and no BLAS call is made (see _batch_trial_step).
Each call does what numpy does for the plain expression, with the same
operands, order and casts, so the workspace changes no bit. Members come
last, so every call runs numpy's contiguous loops, and the sums over the
guides reduce a per-member copy (_member_squares) to keep their bits. The 12
evaluation points of a trial step are known when it starts, so the RHS
does its point-dependent work (sapsim's couplings) for all of them in one
call.

Method: E. Hairer, S. P. Norsett, G. Wanner, "Solving Ordinary
Differential Equations I: Nonstiff Problems", Sec. II.4-II.6 (step
control, initial step, dense output of DOP853).

The Butcher, error and dense-output coefficients below are copied from
scipy's ``_ivp/dop853_coefficients.py``, and the step logic follows its
``_ivp/rk.py``, ``common.py``, ``base.py`` and ``ivp.py``, under this
notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np

from .errors import IntegrationError, Record

SAFETY = 0.9        # multiplies steps predicted from the error estimate
MIN_FACTOR = 0.2    # largest allowed decrease of a step
MAX_FACTOR = 10     # largest allowed increase of a step
ERROR_EXPONENT = -1 / (7 + 1)   # error estimator of order 7
EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# Trial steps (accepted or rejected) one solve may take. The shipped
# configs and tests need at most a few hundred; a fast oscillation such as
# a detuning of 1e5 /mm would need millions, so it stops here, in a few
# seconds, instead of running for hours.
MAX_STEPS = 5_000
# A trial step that overflows gets a non-finite error norm and is rejected
# until the step underflows (IntegrationError), so numpy need not warn
# anywhere in a solve (dense-output stages included).
_TRIAL_ERRSTATE = dict(over="ignore", divide="ignore", invalid="ignore")

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0,
               0.1,
               0.2,
               0.777777777777777777777777777778])

_A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
_A[1, 0] = 5.26001519587677318785587544488e-2

_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2

_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2

_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1

_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1

_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2

_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3

_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1

_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2

_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022

_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2

_A[13, 0] = 5.61675022830479523392909219681e-2
_A[13, 6] = 2.53500210216624811088794765333e-1
_A[13, 7] = -2.46239037470802489917441475441e-1
_A[13, 8] = -1.24191423263816360469010140626e-1
_A[13, 9] = 1.5329179827876569731206322685e-1
_A[13, 10] = 8.20105229563468988491666602057e-3
_A[13, 11] = 7.56789766054569976138603589584e-3
_A[13, 12] = -8.298e-3

_A[14, 0] = 3.18346481635021405060768473261e-2
_A[14, 5] = 2.83009096723667755288322961402e-2
_A[14, 6] = 5.35419883074385676223797384372e-2
_A[14, 7] = -5.49237485713909884646569340306e-2
_A[14, 10] = -1.08347328697249322858509316994e-4
_A[14, 11] = 3.82571090835658412954920192323e-4
_A[14, 12] = -3.40465008687404560802977114492e-4
_A[14, 13] = 1.41312443674632500278074618366e-1

_A[15, 0] = -4.28896301583791923408573538692e-1
_A[15, 5] = -4.69762141536116384314449447206
_A[15, 6] = 7.68342119606259904184240953878
_A[15, 7] = 4.06898981839711007970213554331
_A[15, 8] = 3.56727187455281109270669543021e-1
_A[15, 12] = -1.39902416515901462129418009734e-3
_A[15, 13] = 2.9475147891527723389556272149
_A[15, 14] = -9.15095847217987001081870187138

_B = _A[N_STAGES, :N_STAGES]

_E3 = np.zeros(N_STAGES + 1)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(N_STAGES + 1)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e+1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e+1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1

# The first 3 interpolator rows are computed from the step itself.
_D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
_D[0, 0] = -0.84289382761090128651353491142e+1
_D[0, 5] = 0.56671495351937776962531783590
_D[0, 6] = -0.30689499459498916912797304727e+1
_D[0, 7] = 0.23846676565120698287728149680e+1
_D[0, 8] = 0.21170345824450282767155149946e+1
_D[0, 9] = -0.87139158377797299206789907490
_D[0, 10] = 0.22404374302607882758541771650e+1
_D[0, 11] = 0.63157877876946881815570249290
_D[0, 12] = -0.88990336451333310820698117400e-1
_D[0, 13] = 0.18148505520854727256656404962e+2
_D[0, 14] = -0.91946323924783554000451984436e+1
_D[0, 15] = -0.44360363875948939664310572000e+1

_D[1, 0] = 0.10427508642579134603413151009e+2
_D[1, 5] = 0.24228349177525818288430175319e+3
_D[1, 6] = 0.16520045171727028198505394887e+3
_D[1, 7] = -0.37454675472269020279518312152e+3
_D[1, 8] = -0.22113666853125306036270938578e+2
_D[1, 9] = 0.77334326684722638389603898808e+1
_D[1, 10] = -0.30674084731089398182061213626e+2
_D[1, 11] = -0.93321305264302278729567221706e+1
_D[1, 12] = 0.15697238121770843886131091075e+2
_D[1, 13] = -0.31139403219565177677282850411e+2
_D[1, 14] = -0.93529243588444783865713862664e+1
_D[1, 15] = 0.35816841486394083752465898540e+2

_D[2, 0] = 0.19985053242002433820987653617e+2
_D[2, 5] = -0.38703730874935176555105901742e+3
_D[2, 6] = -0.18917813819516756882830838328e+3
_D[2, 7] = 0.52780815920542364900561016686e+3
_D[2, 8] = -0.11573902539959630126141871134e+2
_D[2, 9] = 0.68812326946963000169666922661e+1
_D[2, 10] = -0.10006050966910838403183860980e+1
_D[2, 11] = 0.77771377980534432092869265740
_D[2, 12] = -0.27782057523535084065932004339e+1
_D[2, 13] = -0.60196695231264120758267380846e+2
_D[2, 14] = 0.84320405506677161018159903784e+2
_D[2, 15] = 0.11992291136182789328035130030e+2

_D[3, 0] = -0.25693933462703749003312586129e+2
_D[3, 5] = -0.15418974869023643374053993627e+3
_D[3, 6] = -0.23152937917604549567536039109e+3
_D[3, 7] = 0.35763911791061412378285349910e+3
_D[3, 8] = 0.93405324183624310003907691704e+2
_D[3, 9] = -0.37458323136451633156875139351e+2
_D[3, 10] = 0.10409964950896230045147246184e+3
_D[3, 11] = 0.29840293426660503123344363579e+2
_D[3, 12] = -0.43533456590011143754432175058e+2
_D[3, 13] = 0.96324553959188282948394950600e+2
_D[3, 14] = -0.39177261675615439165231486172e+2
_D[3, 15] = -0.14972683625798562581422125276e+3

# Main stages, and the three extra stages only the interpolant needs.
_STAGES = tuple(zip(_A[:N_STAGES, :N_STAGES][1:], _C[:N_STAGES][1:]))
_EXTRA_STAGES = tuple(zip(_A[N_STAGES + 1:], _C[N_STAGES + 1:]))

# The batch scope's running sums, one row each: the increments of stages
# 1-11, the new state (B) and the two error estimates (E5, E3). Column j
# holds the weights of stage j; its nonzero rows form one contiguous run
# (74 weights in all), so one operation adds a stage to every sum it enters.
_SUMS = np.vstack([_A[1:N_STAGES, :N_STAGES], _B, _E5[:N_STAGES],
                   _E3[:N_STAGES]])
_ROW_B, _ROW_E5 = N_STAGES - 1, N_STAGES      # E3's row follows E5's


def _column_runs(table):
    """(lo, hi, weights) per column: rows lo:hi hold its nonzero weights,
    shaped (hi - lo, 1, 1) to scale an (n, B) stage. They are stored as
    complex, as numpy would cast them on every use (that cast halves the
    speed of the multiply-add at 666 members); the values are exact."""
    runs = []
    for column in table.T:
        rows = np.flatnonzero(column)
        lo, hi = rows[0], rows[-1] + 1
        runs.append((lo, hi, column[lo:hi, None, None].astype(complex)))
    return tuple(runs)


_COLUMNS = _column_runs(_SUMS)


class DenseOutput(Record):
    """Piecewise degree-7 interpolant over the accepted steps.

    Segment i runs from ``ts[i]``, where the state is ``ys[i]``, to
    ``ts[i + 1]``; ``F[i]`` holds its interpolator rows. The step points
    are monotone in the direction of integration.
    """

    __slots__ = ("ts", "ys", "F")

    def __init__(self, ts: np.ndarray, ys: np.ndarray, F: np.ndarray):
        self.ts, self.ys, self.F = ts, ys, F    # (m,), (m, n), (m - 1, 7, n)

    def __call__(self, t) -> np.ndarray:
        """States (n, k) at the 1-D array of points ``t``.

        At a step point the earlier segment is used, as in scipy's
        ``OdeSolution``. All points are evaluated in one vectorized pass,
        with the per-element operations of scipy's ``Dop853DenseOutput``.
        """
        t = np.asarray(t)
        n_segments = len(self.F)
        ascending = self.ts[-1] >= self.ts[0]
        ts_sorted = self.ts if ascending else self.ts[::-1]
        seg = np.searchsorted(ts_sorted, t, side="left" if ascending else "right")
        seg = np.clip(seg - 1, 0, n_segments - 1)
        if not ascending:
            seg = n_segments - 1 - seg

        t_old = self.ts[seg]
        x = ((t - t_old) / (self.ts[seg + 1] - t_old))[:, None]
        F = self.F[seg]
        y = np.zeros((len(x), self.ys.shape[1]), dtype=self.ys.dtype)
        for i in range(INTERPOLATOR_POWER):
            y += F[:, INTERPOLATOR_POWER - 1 - i]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.ys[seg]
        return y.T


class Solution(Record):
    __slots__ = ("t", "y", "nfev", "sol")

    def __init__(self, t: np.ndarray, y: np.ndarray, nfev: int, sol=None):
        self.t = t          # (m,) accepted step points, t[0] = t0, t[-1] = t_bound
        self.y = y          # (n, m) states there; a batch's final (n, B) only
        self.nfev, self.sol = nfev, sol   # RHS evaluations, DenseOutput


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Hairer-Norsett-Wanner starting step (scipy's select_initial_step)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def _member_squares(x):
    """|x|^2 of an (..., n, B) array as a C-contiguous (..., B, n) copy:
    from 8 guides on, numpy sums a row in another order than it sums rows."""
    return np.swapaxes(x.real ** 2 + x.imag ** 2, -1, -2).copy()


def _member_rms(x):
    """RMS of each member (column) of x."""
    return np.sqrt(np.mean(_member_squares(x), axis=1))


def _batch_start(fun, t0, y0, t_bound, direction, rtol, atol):
    """The start of a batched solve: ``(work, f0, h_abs)``, its workspace
    (see _batch_trial_step), the derivative at t0 and the smallest over the
    members (columns of y0) of _initial_step, each member at its own trial
    point. A NaN estimate (from a member whose RHS overflows) is passed
    over, so that it cannot make the batch's step NaN."""
    stage, k, f0, f1 = np.empty((4,) + y0.shape, dtype=y0.dtype)
    sums, wk = np.empty((2, len(_SUMS)) + y0.shape, dtype=y0.dtype)
    columns = tuple((s - 1, sums[s - 1], w, wk[:hi - lo], sums[lo:hi])
                    for s, (lo, hi, w) in enumerate(_COLUMNS[1:], start=1))
    at, rate = fun(stage)
    at(np.full((1, 1, 1), t0))
    stage[...] = y0
    rate(0, f0)
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _member_rms(y0 / scale)
    d1 = _member_rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.fmin(h0, interval_length)
    np.add(y0, h0 * direction * f0, stage)
    at((t0 + h0 * direction)[None, None, :])
    rate(0, f1)
    d2 = _member_rms((f1 - f0) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.fmax(1e-6, h0 * 1e-3),
                  (0.01 / np.fmax(d1, d2)) ** (1 / (7 + 1)))
    work = (at, rate, stage, k, sums, np.empty((N_STAGES, 1, 1)), columns)
    return work, f0, min(np.nanmin(np.fmin(100 * h0, h1), initial=np.inf),
                         interval_length)


def _stages(fun, t, y, h, K, stages, first):
    """Fill K[first:] with the stages ``(a, c)`` of a step of width h."""
    for s, (a, c) in enumerate(stages, start=first):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _trial_step(fun, t, y, f, h, K, rtol, atol):
    """One trial step of one system (scipy's ``rk_step`` and error norm):
    ``(y_new, f_new, error_norm)``. K, (16, n), receives the stages, which
    the dense output reuses."""
    K[0] = f
    _stages(fun, t, y, h, K, _STAGES, 1)
    y_new = y + h * np.dot(K[:N_STAGES].T, _B)
    f_new = fun(t + h, y_new)
    K[N_STAGES] = f_new
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    return y_new, f_new, _error_norm(K[:N_STAGES + 1], h, scale)


def _batch_trial_step(work, t, y, f, h, rtol, atol):
    """One trial step of a batch: ``(y_new, f_new, error_norm)``, with the
    largest of the members' error norms (Hairer, Norsett and Wanner keep
    one norm per system; a pooled norm over the batch would let one badly
    resolved member hide behind the others).

    ``work`` (_batch_start) holds the bound RHS (``at``, ``rate``), the
    stage state, one stage derivative, the 14 sums, the 12 evaluation
    points, and per stage s = 1-11 the views it writes through: s - 1, the
    sum that forms its state, its weights, scratch for w * k and the sums
    it enters. Only y_new and f_new, which the solve keeps, are new arrays.
    Each sum gets its terms element by element, in order of stage and
    without the zero weights: a member's result does not depend on its
    place in the batch. No BLAS: OpenBLAS threads a matrix-vector
    product as large as the default design grid's, and on a 2-core host
    whose other core was busy its threads waited on each other so long
    that the grid took 2.6 s instead of 0.3 s.
    """
    at, rate, stage, k, sums, points, columns = work
    np.multiply(_C[1:N_STAGES + 1, None, None], h, points)
    np.add(t, points, points)
    at(points)
    # Stage 0 enters every sum, so its terms start them in place of a zero
    # fill; adding 0 turns a -0 into +0, as 0 + w K does.
    np.multiply(_COLUMNS[0][2], f, sums)
    sums += 0
    h_complex = np.array(h, dtype=complex)    # numpy's cast of h, made once
    for s, sum_s, w, wk, run in columns:
        np.multiply(sum_s, h_complex, stage)
        np.add(y, stage, stage)
        rate(s, k)
        np.multiply(w, k, wk)
        np.add(run, wk, run)
    np.multiply(h_complex, sums[_ROW_B], stage)
    np.add(y, stage, stage)
    y_new, f_new = stage.copy(), np.empty_like(y)
    rate(N_STAGES - 1, f_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    err5_norm_2, err3_norm_2 = np.add.reduce(             # E5 and E3
        _member_squares(sums[_ROW_E5:] / scale), axis=2)
    denom = err5_norm_2 + 0.01 * err3_norm_2
    norms = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
    norms[denom == 0] = 0.0
    return y_new, f_new, norms.max()


def solve(fun, t0: float, t_bound: float, y0, rtol: float, atol: float,
          dense_output: bool = False) -> Solution:
    """Integrate y' = fun(t, y) from t0 to t_bound (either direction).

    The rank of y0 sets the scope. A 1-D y0 is one system, and every step
    is bit-identical to scipy's ``solve_ivp``; ``fun(t, y)`` returns the
    complex derivative. A 2-D y0, (n, B), is a batch of B independent
    systems, one column each (see the module notes): its ``Solution.y`` is
    the final (n, B) state alone, and it has no dense output. For a batch,
    ``fun(stage)`` is called once per solve with the C-contiguous (n, B)
    array the solve writes each stage's state to; it returns ``(at,
    rate)``, whose buffers serve that solve only. ``at(ts)`` takes the 12
    points of a trial step, as a (12, 1, 1) array, or one point as a
    (1, 1, 1) or per-member (1, 1, B) array; ``rate(s, out)`` writes the
    complex derivative at ts[s] of the state in ``stage`` to ``out``.

    Raises IntegrationError when the required step falls below 10 ulp of t
    or after MAX_STEPS trial steps, and ValueError for an empty span, a
    start state that is not a finite 1-D or 2-D array, dense output for a
    batch, or a negative atol. An rtol below 100 eps is raised to it with a
    warning.
    """
    t0, t_bound = float(t0), float(t_bound)
    if t0 == t_bound:
        raise ValueError("empty integration span")
    y = np.asarray(y0).astype(complex, copy=False)
    if y.ndim not in (1, 2) or not np.isfinite(y).all():
        raise ValueError("the initial state must be a finite 1-D or 2-D array")
    batched = y.ndim == 2
    if batched and dense_output:
        raise ValueError("dense output needs a 1-D initial state")
    if rtol < 100 * EPS:
        warnings.warn(f"rtol too small; setting rtol = {100 * EPS}",
                      stacklevel=2)
        rtol = np.maximum(rtol, 100 * EPS)
    atol = np.asarray(atol)
    if atol < 0:
        raise ValueError("atol must be non-negative")

    direction = np.sign(t_bound - t0)
    with np.errstate(**_TRIAL_ERRSTATE):
        if batched:
            work, f, h_abs = _batch_start(fun, t0, y, t_bound, direction,
                                          rtol, atol)
            trial_step = partial(_batch_trial_step, work)
        else:
            nfev = 0

            def counted(t, y):
                nonlocal nfev
                nfev += 1
                return fun(t, y)

            work = np.empty((N_STAGES_EXTENDED,) + y.shape, dtype=y.dtype)
            f = counted(t0, y)
            h_abs = _initial_step(counted, t0, y, t_bound, f, direction,
                                  rtol, atol)
            trial_step = partial(_trial_step, counted, K=work)

        t = t0
        n_trials = 0
        ts, ys, Fs = [t0], [y], []
        while True:
            # one accepted step (scipy's RungeKutta._step_impl)
            min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            step_rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(TOO_SMALL_STEP)
                if n_trials == MAX_STEPS:
                    raise IntegrationError(
                        f"step budget of {MAX_STEPS} steps exhausted at "
                        f"t = {t:.6g} of [{t0:g}, {t_bound:g}]")
                n_trials += 1
                h = h_abs * direction
                t_new = t + h
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = np.abs(h)

                y_new, f_new, error_norm = trial_step(t, y, f, h, rtol=rtol,
                                                      atol=atol)
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

            if dense_output:
                # scipy's DOP853._dense_output_impl, for the step just taken
                _stages(counted, t, y, h, work, _EXTRA_STAGES, N_STAGES + 1)
                F = np.empty((INTERPOLATOR_POWER, y.size), dtype=y.dtype)
                f_old = work[0]
                delta_y = y_new - y
                F[0] = delta_y
                F[1] = h * f_old - delta_y
                F[2] = 2 * delta_y - h * (f_new + f_old)
                F[3:] = h * np.dot(_D, work)
                Fs.append(F)

            t, y, f = t_new, y_new, f_new
            ts.append(t)
            if not batched:
                ys.append(y)
            if direction * (t - t_bound) >= 0:
                break

    if batched:     # the start, one initial-step probe, 12 points a trial
        return Solution(np.array(ts), y, 2 + N_STAGES * n_trials)
    ts, ys = np.array(ts), np.array(ys)
    sol = DenseOutput(ts, ys, np.array(Fs)) if dense_output else None
    return Solution(ts, np.moveaxis(ys, 0, -1), nfev, sol)
