"""The radar CPI's reduced receive draw against the full RF-chain block.

``channel.receive_radar`` draws the combined rows and the sample covariance
without forming the (F, N_rf, N) block; ``radar_oracle.receive_radar`` forms
the block and adds noise to every entry.  On a small frame (N=16, F=2, T=1,
N_rf=4), where the projected noise, the signal coordinates and the
Wishart's degrees of freedom each move the covariance, the two must agree
exactly without noise and in distribution with it.  The two-sample tests use
numpy only.
"""

import numpy as np
import pytest

import radar_oracle
from moczsim import ArrayConfig, ModulationParams, RadarTarget, cross_spectrum, encode_batch
from moczsim import make_beamformers
from moczsim.channel import receive_radar

FRAMES, FRAME_LEN, K, SAMPLE_PERIOD = 2, 16, 7, 1e-8
BF = make_beamformers((-0.3, 0.3), ArrayConfig(8, 4))
TX = 6.0 * encode_batch(
    np.random.default_rng(7).integers(0, 2, (FRAMES, K), dtype=np.int8), ModulationParams(K)
)
STARTS = np.arange(FRAMES) * FRAME_LEN * SAMPLE_PERIOD
# Off the beam center, so the target also reaches the RF-chain directions
# orthogonal to the combiner.
TARGET = RadarTarget(gain=0.4 - 0.3j, angle_rad=0.35, delay_s=3.4e-8, doppler_hz=2e6)
PEAK_CELL = 3
DRAWS = 4000


def receive(fn, targets, noise_variance, rng):
    return fn(TX, targets, BF, SAMPLE_PERIOD, FRAME_LEN, STARTS, noise_variance, rng)


@pytest.mark.parametrize(
    "targets",
    [
        [],
        [TARGET],
        # Two targets at one delay and Doppler: the waveforms are parallel, so
        # the span of the waveforms and the combined row has rank 1.
        [TARGET, RadarTarget(gain=0.2j, angle_rad=-0.1, delay_s=3.4e-8, doppler_hz=2e6)],
    ],
    ids=["no-target", "one-target", "two-targets-one-delay"],
)
def test_noiseless_receive_equals_the_full_block(targets):
    combined, cov = receive(receive_radar, targets, 0.0, np.random.default_rng(1))
    want_combined, want_cov = receive(radar_oracle.receive_radar, targets, 0.0, None)
    scale = max(np.max(np.abs(want_cov)), 1e-300)
    np.testing.assert_allclose(combined, want_combined, rtol=0, atol=1e-12)
    assert np.max(np.abs(cov - want_cov)) <= 1e-12 * scale
    np.testing.assert_array_equal(cov, cov.conj().T)


def features(fn, seed):
    """Per draw: the covariance's real diagonal, the real and imaginary parts
    of its strict upper triangle, and frame 0's correlation power at the
    target's cell."""
    upper = np.triu_indices(4, 1)
    covs = np.empty((DRAWS, 4, 4), dtype=complex)
    power = np.empty(DRAWS)
    for i in range(DRAWS):
        combined, covs[i] = receive(fn, [TARGET], 1.0, np.random.default_rng([seed, i]))
        power[i] = np.abs(np.fft.ifft(cross_spectrum(TX[0], combined[0]))[PEAK_CELL]) ** 2
    entries = np.concatenate(
        [covs[:, range(4), range(4)].real, covs[:, upper[0], upper[1]].real,
         covs[:, upper[0], upper[1]].imag],
        axis=1,
    )
    return entries, power


@pytest.fixture(scope="module")
def samples():
    return features(receive_radar, 1), features(radar_oracle.receive_radar, 2)


def two_sample_z(x, y):
    """Welch z of the column means of two (draws, features) samples."""
    return (x.mean(axis=0) - y.mean(axis=0)) / np.sqrt(
        x.var(axis=0) / len(x) + y.var(axis=0) / len(y)
    )


# 16 covariance features per test; |z| < 5 fails a true null with a chance
# of about 1e-5 over all of them.
Z_LIMIT = 5.0


def test_covariance_entry_means_agree(samples):
    (reduced, _), (block, _) = samples
    z = two_sample_z(reduced, block)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_covariance_entry_variances_agree(samples):
    (reduced, _), (block, _) = samples
    z = two_sample_z(
        (reduced - reduced.mean(axis=0)) ** 2, (block - block.mean(axis=0)) ** 2
    )
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_frame_zero_cfar_power_has_one_distribution(samples):
    (_, reduced), (_, block) = samples
    # Two-sample Kolmogorov-Smirnov statistic; at 4000 draws a side its 1e-4
    # critical value is sqrt(-log(0.5e-4) / 2) * sqrt(2 / 4000) = 0.0497.
    grid = np.sort(np.concatenate([reduced, block]))
    cdf = [np.searchsorted(np.sort(x), grid, side="right") / x.size for x in (reduced, block)]
    assert np.max(np.abs(cdf[0] - cdf[1])) < 0.0497
