"""The radar CPI's receive by the full RF-chain block: the reference that
``channel.receive_radar`` is checked against.

It forms the (F, N_rf, N) channel output, adds one noise block per frame in
frame order, and reads the combined rows and the gated beam outputs, every
RF chain's correlation value at each lag in the basis Q = [c, B], off the
noisy block, as the CPI did before it drew only what the receiver reads.
Frame 0's block is formed at receive time, frames 1..F-1 (and their noise,
after frame 0's) when the gated outputs are read.
"""

import numpy as np

from moczsim.channel import apply_radar_channel, awgn
from moczsim.radar import correlation_value_at, cross_spectrum


def receive_radar(first, later, targets, bf, frame_len, start, noise_variance, rngs):
    """``(combined rows of frame 0, draw)`` of B trials' noisy (F, N_rf, N)
    blocks, with the arguments and results of ``channel.receive_radar``:
    each trial is received on its own, as a block of one."""
    trials = [
        receive_trial(x, trial_targets, bf, frame_len, start, noise_variance, rng)
        for x, trial_targets, rng in zip(first, targets, rngs)
    ]

    def draw(rows, lags, values):
        rows, lags = np.asarray(rows, dtype=int), np.asarray(lags, dtype=float)
        reached = np.unique(rows)
        gated = np.empty((len(rows), len(start), bf.basis.shape[0]), dtype=complex)
        for b, frames in zip(reached, later(reached)):
            mine = np.flatnonzero(rows == b)
            gated[mine] = trials[b][1](frames, lags[mine]).swapaxes(0, 1)
        return gated

    return np.stack([combined for combined, _ in trials]), draw


def receive_trial(first, targets, bf, frame_len, start, noise_variance, rng):
    """``(combined row of frame 0, rest)`` of one trial's noisy (F, N_rf, N)
    block; ``rest(later, lags)`` forms frames 1..F-1 from ``later``, the
    trial's (F - 1, L) transmitted frames, and reads frame 0's row 0 off the
    block too, not from the receiver's values."""
    rx0 = bf.basis.conj().T @ awgn(
        apply_radar_channel(first, targets, bf, frame_len, start[0]), noise_variance, rng
    )

    def rest(later, lags):
        rx = apply_radar_channel(later, targets, bf, frame_len, start[1:])
        noisy = np.array([awgn(f, noise_variance, rng) for f in rx]).reshape(rx.shape)
        rx = np.concatenate([rx0[None], bf.basis.conj().T @ noisy])
        samples = np.concatenate([first[None], later])
        gated = correlation_value_at(cross_spectrum(samples[:, None], rx), lags)
        return gated.swapaxes(-1, -2)

    return rx0[0], rest
