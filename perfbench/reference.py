"""A fixed reference op, timed right beside every measured op.

The baseline hardware is a shared 2-vCPU Intel Xeon virtual machine.
There one fixed pure-Python loop takes anywhere from 45 to 128 ms from
one second to the next, and the median step time of a 20-second run
moves by 20-30% between runs minutes apart. Steal time stays 0; the core
just runs slower. A raw wall-time median cannot hold a 25% bound there.
So each measured interval ``t`` is reported in baseline seconds:
``t * nominal / r``, where ``r`` is the time of a fixed sarl-free
reference op measured right before and after the interval, and
``nominal`` is a constant: that op's usual time on the baseline machine.
A slower sarl makes ``t`` longer while ``r`` stays put, so calibration
only removes the speed swings that both share. The raw wall times are
printed next to the calibrated ones.

There are two kinds, matched to what the workload spends its time on:
``dispatch`` does many tiny numpy calls through Python closures, as the
tape does at the default shape; ``arithmetic`` does the 256-patch
attention and bilinear-sized array work of train-large.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the reference op's usual time on the baseline machine, in seconds
NOMINAL_S = {"dispatch": 0.002, "arithmetic": 0.005}


def _dispatch_op(a, w):
    def step(x):
        y = x @ w
        y = np.exp(y - y.max())
        return y / y.sum()

    for _ in range(200):
        a = step(a)
    return float(a.sum())


def _arithmetic_op(f, w, s):
    q = f @ w
    for h in range(0, 32, 4):
        logits = q[:, h:h + 4] @ q[:, h:h + 4].T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        e @ q[:, h:h + 4]
    pair = np.tanh(q[:, None, :] * s[None, :, :])
    return float(pair.sum())


class Reference:
    """Times one reference op of the given kind."""

    def __init__(self, kind):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        if kind == "dispatch":
            args = (rng.standard_normal((4, 32)).astype(np.float32),
                    (0.1 * rng.standard_normal((32, 32))).astype(np.float32))
            self._op = lambda: _dispatch_op(*args)
        else:
            args = (rng.standard_normal((256, 32)).astype(np.float32),
                    (0.1 * rng.standard_normal((32, 32))).astype(np.float32),
                    rng.standard_normal((20, 32)).astype(np.float32))
            self._op = lambda: _arithmetic_op(*args)

    def time(self):
        t0 = perf_counter()
        self._op()
        return perf_counter() - t0

    def median_time(self, k=5):
        """Median of k reference ops, for the few long set-up intervals."""
        return statistics.median(self.time() for _ in range(k))

    def scale(self, seconds, ref):
        """Wall seconds next to a reference time, in baseline seconds."""
        return seconds * self.nominal / ref
