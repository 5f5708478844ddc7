"""Host-speed calibration: fixed reference work timed between the parts
of each phase.

The host is shared.  Its core switches, every few seconds, between
full speed and about half speed as other tenants come and go, and the
share of slow time drifts over minutes.  A run may then hold no
full-speed sample of a part, and no estimator over the program's own
samples can tell a slow program from a slow host.  So each phase is
timed against fixed kernels, written here and independent of the
program, that do the same kind of work as the program's hot loops: a
recurrent layer of 8 cells over 24 steps in small numpy operations.
(Process CPU time does not help: the slow speed is not stolen time,
and CPU time slows with it.)

- ``fit``: forward and backward passes over a batch of 32 windows, like
  training steps (``fit.train`` is ~90% of a fit).
- ``serve``: forward passes over one window, like forecasts
  (``serve.lstm_l*`` are the largest serve layers).

A :class:`PartClock` runs its phase's kernel at every boundary between
two parts (an epoch, a chunk), so each part has a kernel sample just
before and just after it, taken at the same host speed.  Both slow down
alike: a chunk of ``search`` read ~40 ms at full speed and ~77 ms at
the slow speed, and forward passes of the same length beside it ~42 and
~78 ms.  A part's *ratio* to its kernel samples therefore does not
depend on the host's speed, and ``ratio * REFERENCE_MS[kind]`` is the
part's time on a host where the kernel takes its reference time, about
an idle core of the 2-vCPU host the benchmark was tuned on.  The
scaling cannot hide a change to the program, which the kernels do not
call.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

# One BLAS thread, set before numpy loads.  The model's matrices are 8 to
# 32 wide, too small for a second thread to help; on a shared 2-vCPU host
# that thread waits for a contended core (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

#: Kernel times, in ms, of the reference host.  Fixed: changing them
#: rescales every figure.
REFERENCE_MS = {"fit": 10.0, "serve": 9.9}

_H, _T, _B = 8, 24, 32
_rng = np.random.default_rng(0)
_W = 0.3 * _rng.standard_normal((1, 4 * _H))
_U = 0.3 * _rng.standard_normal((_H, 4 * _H))
_BIAS = np.zeros(4 * _H)
_BATCH = _rng.standard_normal((_B, _T, 1))
_WINDOW = _rng.standard_normal((1, _T, 1))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _forward(x):
    b = x.shape[0]
    xw = (x.reshape(b * _T, 1) @ _W).reshape(b, _T, 4 * _H) + _BIAS
    h = np.zeros((b, _H))
    c = np.zeros((b, _H))
    steps = []
    for t in range(_T):
        z = xw[:, t] + h @ _U
        i, f, o = _sigmoid(z[:, :_H]), _sigmoid(z[:, _H:2 * _H]), _sigmoid(z[:, 2 * _H:3 * _H])
        g = np.tanh(z[:, 3 * _H:])
        c_prev, c = c, f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        steps.append((h, i, f, o, g, c_prev, tc))
    return steps


def _train_step() -> None:
    steps = _forward(_BATCH)
    dU = np.zeros_like(_U)
    dh_next = np.zeros((_B, _H))
    dc_next = np.zeros((_B, _H))
    for t in range(_T - 1, -1, -1):
        h, i, f, o, g, c_prev, tc = steps[t]
        dh = dh_next + (h if t == _T - 1 else 0.0)
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = np.concatenate([
            dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
            dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g),
        ], axis=1)
        dc_next = dc * f
        h_prev = steps[t - 1][0] if t else np.zeros((_B, _H))
        dU += h_prev.T @ dz
        dh_next = dz @ _U.T


# A kernel takes ~10 ms: long enough that timer and scheduler jitter
# are small against it, short enough that the host rarely switches speed
# between a part and the samples around it.
def _fit_kernel() -> None:
    for _ in range(8):
        _train_step()


def _serve_kernel() -> None:
    for _ in range(27):
        _forward(_WINDOW)


_KERNELS = {"fit": _fit_kernel, "serve": _serve_kernel}


class PartClock:
    """Times the parts of one phase, with a kernel sample around each.

    :meth:`start` before the phase, then :meth:`lap` at the end of each
    part.  Each call times the ``kind`` kernel once; with a ledger, the
    kernel's time is charged to no layer.
    """

    def __init__(self, kind: str, ledger=None):
        self.kind = kind
        self.parts: list[float] = []
        #: ``kernels[j]`` and ``kernels[j + 1]`` are taken around ``parts[j]``.
        self.kernels: list[float] = []
        self._ledger = ledger
        self._t0 = 0.0

    def _calibrate(self) -> None:
        perf = time.perf_counter
        with self._ledger.excluded() if self._ledger else nullcontext():
            t0 = perf()
            _KERNELS[self.kind]()
            self.kernels.append(perf() - t0)
        self._t0 = perf()

    def start(self) -> None:
        self._calibrate()

    def lap(self) -> None:
        self.parts.append(time.perf_counter() - self._t0)
        self._calibrate()

    def kernel_s(self) -> float:
        """Time spent in the kernels, which the parts do not include."""
        return sum(self.kernels)

    def ratios(self) -> list[float]:
        """Each part's time over the mean of its two kernel samples."""
        k = self.kernels
        return [p / (0.5 * (k[j] + k[j + 1])) for j, p in enumerate(self.parts)]
