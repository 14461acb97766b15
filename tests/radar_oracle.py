"""The radar CPI's receive by the full RF-chain block: the reference that
``channel.receive_radar`` is checked against.

It forms the (F, N_rf, N) channel output, adds one noise block per frame in
frame order, and reads the sample covariance and the combined rows off the
noisy block, as the CPI did before it drew only what the receiver reads.
"""

from moczsim.channel import apply_radar_channel, awgn
from moczsim.radar import sample_covariance


def receive_radar(
    samples, targets, bf, sample_period, frame_len, start_time, noise_variance, rng
):
    """``(combined, cov)`` of the noisy (F, N_rf, N) block, with the
    arguments of ``channel.receive_radar``."""
    rx = apply_radar_channel(samples, targets, bf, sample_period, frame_len, start_time)
    rx = awgn(rx, noise_variance, rng, frame_axes=1)
    # A (1, N_rf) row, not a vector: matmul then makes one BLAS call per frame.
    combined = (bf.combiner.conj()[None, :] @ rx)[..., 0, :]
    return combined, sample_covariance(rx)
