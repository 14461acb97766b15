"""Ordered-statistic CFAR by explicit gather and per-row partition: the
reference that the rank-count detector is checked against."""

import numpy as np

from moczsim import Detection


def os_cfar(profile, config):
    """Threshold every cell at alpha times the os_rank-th smallest of its
    2*window circular reference powers, and keep the cells above it."""
    power = np.abs(np.asarray(profile)) ** 2
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
    return [
        Detection(cell=int(c), statistic=float(power[c]), threshold=float(thresholds[c]))
        for c in cells
    ]
