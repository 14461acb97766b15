"""The radar CPI's receive by the full RF-chain block: the reference that
``channel.receive_radar`` is checked against.

It forms the (F, N_rf, N) channel output, adds one noise block per frame in
frame order, and reads the combined rows and the gated beam outputs, every
RF chain's correlation value at each lag in the basis Q = [c, B], off the
noisy block, as the CPI did before it drew only what the receiver reads.
"""

import numpy as np

from moczsim.channel import apply_radar_channel, awgn
from moczsim.radar import correlation_value_at, cross_spectrum


def receive_radar(samples, targets, bf, frame_len, start, noise_variance, rngs):
    """``(combined rows of frame 0, rests)`` of B trials' noisy (F, N_rf, N)
    blocks, with the arguments and results of ``channel.receive_radar``:
    each trial is received on its own, as a block of one."""
    trials = [
        receive_trial(x, trial_targets, bf, frame_len, start, noise_variance, rng)
        for x, trial_targets, rng in zip(samples, targets, rngs)
    ]
    return np.stack([combined for combined, _ in trials]), [rest for _, rest in trials]


def receive_trial(samples, targets, bf, frame_len, start, noise_variance, rng):
    """``(combined row of frame 0, rest)`` of one trial's noisy (F, N_rf, N)
    block; ``rest`` reads frame 0's row 0 off the block too, not from its
    ``values``."""
    rx = apply_radar_channel(samples, targets, bf, frame_len, start)
    rx = bf.basis.conj().T @ np.stack([awgn(f, noise_variance, rng) for f in rx])

    def rest(lags, values):
        lags = np.asarray(lags, dtype=float)
        gated = correlation_value_at(cross_spectrum(samples[:, None], rx), lags)
        return gated.swapaxes(-1, -2)

    return rx[0, 0], rest
