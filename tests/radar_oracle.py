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


def receive_radar(
    samples, targets, bf, sample_period, frame_len, start_time, noise_variance, rng
):
    """``(combined row of frame 0, rest)`` of the noisy (F, N_rf, N) block,
    with the arguments and results of ``channel.receive_radar``; ``rest``
    reads frame 0's row 0 off the block too, not from its ``values``."""
    rx = apply_radar_channel(samples, targets, bf, sample_period, frame_len, start_time)
    rx = bf.basis.conj().T @ np.stack([awgn(f, noise_variance, rng) for f in rx])

    def rest(lags, values):
        lags = np.asarray(lags, dtype=float)
        gated = correlation_value_at(cross_spectrum(samples[:, None], rx), lags)
        return gated.swapaxes(-1, -2)

    return rx[0, 0], rest
