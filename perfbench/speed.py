"""Scaling of measured CPU times to a reference machine speed.

On a shared virtual machine the CPU time of a fixed piece of work drifts by
about 15% over minutes, with the load of other tenants.  The benchmark runs a
fixed calibration kernel, independent of rotform, after every ~0.1 s of
measured work, and scales each operation's CPU time by REFERENCE_S over the
median kernel time around it.  The kernel mimics rotform's hot loops (scalar
indexing and small row and column updates, as in cyclic Jacobi) plus small
LAPACK calls, so it tracks much of the machine's slowdown, and a change to
rotform does not touch it.  Over five seeds of spectral_dense on a 2-vCPU
virtual machine, the interquartile spread of ops_per_s fell from 10-17% of
the median unscaled to 6.5% scaled.
"""

import statistics
from time import process_time

import numpy as np

# Median calibrate() time on the reference machine: a 2-vCPU x86-64 virtual
# machine, Python 3.11, numpy 2.4 with OpenBLAS on one thread.
REFERENCE_S = 0.0024
SEGMENT_S = 0.1
# Calibration samples on each side of a segment whose median sets its factor;
# one 2 ms sample alone varies by tens of percent.
WINDOW = 5

_M = np.random.default_rng(0).standard_normal((8, 8))
_M = _M + _M.T


def calibrate():
    """CPU seconds of a fixed set of Jacobi-style updates plus LAPACK calls."""
    start = process_time()
    for _ in range(4):
        A = _M.copy()
        for p in range(7):
            for q in range(p + 1, 8):
                theta = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p], A[:, q] = c * col_p - s * col_q, s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :], A[q, :] = c * row_p - s * row_q, s * row_p + c * row_q
        np.linalg.svd(_M)
        np.linalg.eigvals(_M)
    return process_time() - start


class SpeedScale:
    """Scales the CPU times of outcomes to REFERENCE_S speed.

    The outcomes are cut into segments of at least SEGMENT_S of CPU time with
    a calibration after each; a segment's factor is REFERENCE_S over the
    median of the calibrations within WINDOW samples of it.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self._segments = []
        self._open = []
        self._open_s = 0.0

    def observe(self, outcomes):
        self._open += outcomes
        self._open_s += sum(o.cpu_s for o in outcomes)
        if self._open_s >= SEGMENT_S:
            self._close()

    def _close(self):
        self._segments.append(self._open)
        self.samples.append(calibrate())
        self._open = []
        self._open_s = 0.0

    def apply(self):
        if self._open:
            self._close()
        for k, segment in enumerate(self._segments):
            window = self.samples[max(0, k + 1 - WINDOW):k + 1 + WINDOW]
            factor = REFERENCE_S / statistics.median(window)
            for outcome in segment:
                outcome.seconds = outcome.cpu_s * factor
