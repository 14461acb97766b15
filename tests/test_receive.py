"""The radar CPI's reduced receive draw against the full RF-chain block.

``channel.receive_radar`` draws frame 0's combined row, then the later
frames' correlation values at the detected lags and the sample covariance,
without forming the (F, N_rf, N) block; ``radar_oracle.receive_radar`` forms
the block and adds noise to every entry.  On a small CPI (N=16, F=3, T=1,
N_rf=4), where the projected noise, the signal coordinates, the kernels and
the Wisharts' degrees of freedom each move a feature, the two must agree
exactly without noise and in distribution with it, both with one kernel
lag (D = 1) and with none (D = 0).  The two-sample tests use numpy only.
At scene size (N=1024, L=128) the noiseless draw is also checked where the
later frames' Gram has its edge cases: a delayed codeword that wraps past
the frame end under Doppler, a rank-deficient span, L = N and F = 1.
"""

import numpy as np
import pytest

import radar_oracle
from moczsim import ArrayConfig, ModulationParams, RadarTarget, cross_spectrum, encode_batch
from moczsim import make_beamformers
from moczsim.channel import receive_radar

FRAMES, FRAME_LEN, K, SAMPLE_PERIOD = 3, 16, 7, 1e-8
BF = make_beamformers((-0.3, 0.3), ArrayConfig(8, 4))
TX = 6.0 * encode_batch(
    np.random.default_rng(7).integers(0, 2, (FRAMES, K), dtype=np.int8), ModulationParams(K)
)
STARTS = np.arange(FRAMES) * FRAME_LEN * SAMPLE_PERIOD
# Off the beam center, so the target also reaches the RF-chain directions
# orthogonal to the combiner.
TARGET = RadarTarget(gain=0.4 - 0.3j, angle_rad=0.35, delay_s=3.4e-8, doppler_hz=2e6)
PEAK_CELL = 3
# The kernel lag: near the target's delay, but not on it, so the kernels
# are not parallel to the delayed waveforms.
LAG = 3.1
DRAWS = 2500


def receive(fn, targets, noise_variance, rng, lags):
    combined, rest = fn(TX, targets, BF, SAMPLE_PERIOD, FRAME_LEN, STARTS, noise_variance, rng)
    return (combined, *rest(lags))


@pytest.mark.parametrize(
    "targets",
    [
        [],
        [TARGET],
        # Two targets at one delay and Doppler: the waveforms are parallel, so
        # each span of the waveforms and a combined row or kernel has lower
        # rank.
        [TARGET, RadarTarget(gain=0.2j, angle_rad=-0.1, delay_s=3.4e-8, doppler_hz=2e6)],
    ],
    ids=["no-target", "one-target", "two-targets-one-delay"],
)
def test_noiseless_receive_equals_the_full_block(targets):
    for lags in ([], [LAG], [LAG, 9.0]):
        combined, values, cov = receive(receive_radar, targets, 0.0, np.random.default_rng(1), lags)
        want_combined, want_values, want_cov = receive(
            radar_oracle.receive_radar, targets, 0.0, None, lags
        )
        scale = max(np.max(np.abs(want_cov)), 1e-300)
        np.testing.assert_allclose(combined, want_combined, rtol=0, atol=1e-12)
        assert values.shape == want_values.shape == (FRAMES - 1, len(lags))
        np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-11)
        assert np.max(np.abs(cov - want_cov)) <= 1e-12 * scale
        np.testing.assert_array_equal(cov, cov.conj().T)


UPPER = np.triu_indices(4, 1)


def features(fn, seed, lags):
    """Per draw: the covariance's real diagonal and the real and imaginary
    parts of its strict upper triangle; the real and imaginary parts of the
    correlation value of each frame >= 1 at each lag; and frame 0's
    correlation power at the target's cell."""
    combined = np.empty((DRAWS, FRAME_LEN), dtype=complex)
    covs = np.empty((DRAWS, 4, 4), dtype=complex)
    values = np.empty((DRAWS, FRAMES - 1, len(lags)), dtype=complex)
    for i in range(DRAWS):
        combined[i], values[i], covs[i] = receive(
            fn, [TARGET], 1.0, np.random.default_rng([seed, i]), lags
        )
    power = np.abs(np.fft.ifft(cross_spectrum(TX[0], combined))[:, PEAK_CELL]) ** 2
    entries = np.concatenate(
        [covs[:, range(4), range(4)].real, covs[:, UPPER[0], UPPER[1]].real,
         covs[:, UPPER[0], UPPER[1]].imag],
        axis=1,
    )
    flat = values.reshape(DRAWS, -1)
    return entries, np.concatenate([flat.real, flat.imag], axis=1), power


@pytest.fixture(scope="module")
def samples():
    """(reduced, block) features with one kernel lag."""
    return features(receive_radar, 1, [LAG]), features(radar_oracle.receive_radar, 2, [LAG])


@pytest.fixture(scope="module")
def samples_no_detection():
    """(reduced, block) features with no lag: frames >= 1 feed only the covariance."""
    return features(receive_radar, 3, []), features(radar_oracle.receive_radar, 4, [])


def two_sample_z(x, y):
    """Welch z of the column means of two (draws, features) samples."""
    return (x.mean(axis=0) - y.mean(axis=0)) / np.sqrt(
        x.var(axis=0) / len(x) + y.var(axis=0) / len(y)
    )


def variances_z(x, y):
    """Welch z of the column variances of two (draws, features) samples."""
    return two_sample_z((x - x.mean(axis=0)) ** 2, (y - y.mean(axis=0)) ** 2)


# At most 32 features per test; |z| < 5 fails a true null with a chance of
# about 2e-5 over all of them.
Z_LIMIT = 5.0


def test_covariance_entry_means_agree(samples):
    (reduced, *_), (block, *_) = samples
    z = two_sample_z(reduced, block)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_covariance_entry_variances_agree(samples):
    (reduced, *_), (block, *_) = samples
    z = variances_z(reduced, block)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_correlation_value_means_and_variances_agree(samples):
    (_, reduced, _), (_, block, _) = samples
    z = np.concatenate([two_sample_z(reduced, block), variances_z(reduced, block)])
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_covariance_without_detections_agrees(samples_no_detection):
    (reduced, values, _), (block, block_values, _) = samples_no_detection
    assert values.shape == block_values.shape == (DRAWS, 0)
    z = np.concatenate([two_sample_z(reduced, block), variances_z(reduced, block)])
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_frame_zero_cfar_power_has_one_distribution(samples):
    (*_, reduced), (*_, block) = samples
    # Two-sample Kolmogorov-Smirnov statistic; at 2500 draws a side its 1e-4
    # critical value is sqrt(-log(0.5e-4) / 2) * sqrt(2 / 2500) = 0.0629.
    grid = np.sort(np.concatenate([reduced, block]))
    cdf = [np.searchsorted(np.sort(x), grid, side="right") / x.size for x in (reduced, block)]
    assert np.max(np.abs(cdf[0] - cdf[1])) < 0.0629


SCENE_FRAMES, SCENE_K = 4, 127
SCENE_TX = 6.0 * encode_batch(
    np.random.default_rng(8).integers(0, 2, (SCENE_FRAMES, SCENE_K), dtype=np.int8),
    ModulationParams(SCENE_K),
)


def scene_target(delay_samples, doppler_hz):
    return RadarTarget(
        gain=0.4 - 0.3j, angle_rad=0.35, delay_s=delay_samples * SAMPLE_PERIOD,
        doppler_hz=doppler_hz,
    )


# (frame_len, frames, target, lags), each lag in samples.
SCENE_CASES = {
    "doppler-lag-off-delay": (1024, 4, scene_target(40.3, 6e3), [40.33]),
    # The codeword runs past sample N-1 and wraps, so the Doppler ramp jumps
    # there; one lag is negative and one beyond the frame.
    "wrapping-delay": (1024, 4, scene_target(1000.7, -2e5), [-0.4, 1024 + 6.2]),
    # The kernel is the waveform itself: the span has rank one.
    "zero-doppler-lag-on-delay": (
        1024, 4, scene_target(40.3, 0.0), [scene_target(40.3, 0.0).delay_s / SAMPLE_PERIOD]
    ),
    "frame-is-codeword": (128, 4, scene_target(40.3, 2e5), [40.1]),
    "one-frame": (1024, 1, scene_target(40.3, 6e3), [40.33]),
}


@pytest.mark.parametrize("case", list(SCENE_CASES))
def test_noiseless_receive_equals_the_full_block_at_scene_size(case):
    frame_len, frames, target, lags = SCENE_CASES[case]
    tx = SCENE_TX[:frames]
    starts = np.arange(frames) * frame_len * SAMPLE_PERIOD
    args = (tx, [target], BF, SAMPLE_PERIOD, frame_len, starts, 0.0)
    combined, rest = receive_radar(*args, np.random.default_rng(1))
    values, cov = rest(lags)
    want_combined, want_rest = radar_oracle.receive_radar(*args, None)
    want_values, want_cov = want_rest(lags)
    np.testing.assert_allclose(combined, want_combined, rtol=0, atol=1e-12)
    assert values.shape == want_values.shape == (frames - 1, len(lags))
    np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-11)
    assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))
    np.testing.assert_array_equal(cov, cov.conj().T)
