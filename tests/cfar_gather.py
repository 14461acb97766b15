"""Ordered-statistic CFAR by explicit gather and per-row partition: the
reference that the rank-count detector is checked against.  Also the
calibration chunk drawn as complex Gaussian noise, the reference for the
Exp(1) power that calibration draws."""

import math

import numpy as np


def os_cfar(power, config):
    """Threshold every cell at alpha times the os_rank-th smallest of its
    2*window circular reference powers; return the cells above it and
    their thresholds."""
    power = np.asarray(power)
    n = power.size
    span = 2 * (config.window + config.guard) + 1
    if n < span:
        raise ValueError(f"frame of {n} cells shorter than CFAR span {span}")
    one_side = np.arange(config.guard + 1, config.guard + config.window + 1)
    offsets = np.concatenate([-one_side, one_side])
    ref = power[(np.arange(n)[:, None] + offsets[None, :]) % n]
    kth = np.partition(ref, config.os_rank - 1, axis=1)[:, config.os_rank - 1]
    thresholds = config.alpha * kth
    cells = np.nonzero(power > thresholds)[0]
    return cells, thresholds[cells]


def normal_chunk_power(rng, cells):
    """Power of ``cells`` CN(0, 1) noise cells, (re + 1j*im) / sqrt(2) drawn
    as a block of real parts, then a block of imaginary parts."""
    z = np.empty(cells, dtype=complex)
    z.real = rng.standard_normal(cells)
    z.imag = rng.standard_normal(cells)
    z /= math.sqrt(2.0)
    return np.abs(z) ** 2
