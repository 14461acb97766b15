"""The radar CPI's receive by the full RF-chain block: the reference that
``channel.receive_radar`` is checked against.

It forms the (F, N_rf, N) channel output, adds one noise block per frame in
frame order, and reads the combined rows, the correlation values of frames
1..F-1 and the sample covariance off the noisy block, as the CPI did before
it drew only what the receiver reads.
"""

import numpy as np

from moczsim.channel import apply_radar_channel, awgn
from moczsim.radar import correlation_value_at, cross_spectrum, sample_covariance


def receive_radar(
    samples, targets, bf, sample_period, frame_len, start_time, noise_variance, rng
):
    """``(combined row of frame 0, rest)`` of the noisy (F, N_rf, N) block,
    with the arguments and results of ``channel.receive_radar``."""
    rx = apply_radar_channel(samples, targets, bf, sample_period, frame_len, start_time)
    rx = np.stack([awgn(f, noise_variance, rng) for f in rx])
    # A (1, N_rf) row, not a vector: matmul then makes one BLAS call per frame.
    combined = (bf.basis[:, 0].conj()[None, :] @ rx)[..., 0, :]

    def rest(lags):
        lags = np.asarray(lags, dtype=float)
        values = correlation_value_at(cross_spectrum(samples[1:], combined[1:]), lags)
        return values, sample_covariance(rx)

    return combined[0], rest
