"""The radar CPI's reduced receive draw against the full RF-chain block.

``channel.receive_radar`` draws frame 0's combined row, then every frame's
gated beam outputs (each RF chain's correlation value at the detected lags)
without forming the (F, N_rf, N) block; ``radar_oracle.receive_radar`` forms
the block, adds noise to every entry and reads them off it.  On a small CPI
(N=16, F=3, T=1, N_rf=4), where the projected noise, the signal coordinates
and the kernels each move a feature, the two must agree exactly without
noise, with no lag (D = 0), one, two, or one lag twice (two targets in one
cell), and in distribution with noise, also for two lags K apart, whose
noise the codeword's side peak correlates.  The two-sample tests use numpy
only.  At scene size (N=1024, L=128) the noiseless draw is also checked
where the cross-Gram has its edge cases: a delayed codeword that wraps
past the frame end under Doppler, a kernel on the waveform, L = N and F = 1.
"""

import numpy as np
import pytest

import radar_oracle
from moczsim import ArrayConfig, ModulationParams, RadarTarget, cross_spectrum, encode_batch
from moczsim import correlation_value_at
from moczsim import make_beamformers
from moczsim import channel
from moczsim.channel import receive_radar
from moczsim.simulate import _RADAR_BLOCK

FRAMES, FRAME_LEN, K = 3, 16, 7
BF = make_beamformers((-0.3, 0.3), ArrayConfig(8, 4))
TX = 6.0 * encode_batch(
    np.random.default_rng(7).integers(0, 2, (FRAMES, K), dtype=np.int8), ModulationParams(K)
)
# Off the beam center, so the target also reaches the RF-chain directions
# orthogonal to the combiner.
TARGET = RadarTarget(gain=0.4 - 0.3j, angle_rad=0.35, delay=3.4, doppler=0.02)
PEAK_CELL = 3
# The kernel lag: near the target's delay, but not on it, so the kernels
# are not parallel to the delayed waveforms.
LAG = 3.1
DRAWS = 2500


def receive(fn, targets, noise_variance, rng, lags, tx=TX, frame_len=FRAME_LEN):
    """Frame 0's combined row and the (F, D, N_rf) gated outputs of one
    trial, received as a block of one, frame 0's row 0 read off the
    combined row as ``simulate`` reads it."""
    starts = np.arange(len(tx)) * frame_len
    [combined], draw = fn(
        tx[None, 0], later_of(tx[None]), [targets], BF, frame_len, starts, noise_variance, [rng]
    )
    values = correlation_value_at(cross_spectrum(tx[0], combined), lags)
    return combined, draw(np.zeros(len(lags), dtype=int), lags, values).swapaxes(0, 1)


def later_of(tx):
    """The ``later`` of ``receive_radar`` for the (B, F, L) frames ``tx``."""
    return lambda rows: tx[rows, 1:]


LAG_CASES = [[], [LAG], [LAG, 9.0], [LAG, LAG]]
LAG_IDS = ["D=0", "D=1", "D=2", "one-cell-twice"]


def assert_gated_equal(got, want, lags, frames):
    combined, gated = got
    want_combined, want_gated = want
    np.testing.assert_allclose(combined, want_combined, rtol=0, atol=1e-12)
    assert gated.shape == want_gated.shape == (frames, len(lags), 4)
    scale = max(np.max(np.abs(want_gated), initial=0.0), 1e-300)
    assert np.max(np.abs(gated - want_gated), initial=0.0) <= 1e-11 * scale


@pytest.mark.parametrize(
    "targets",
    [
        [],
        [TARGET],
        # Two targets at one delay and Doppler: the waveforms are parallel, so
        # each span of the waveforms and a kernel has lower rank.
        [TARGET, RadarTarget(gain=0.2j, angle_rad=-0.1, delay=3.4, doppler=0.02)],
    ],
    ids=["no-target", "one-target", "two-targets-one-delay"],
)
@pytest.mark.parametrize("lags", LAG_CASES, ids=LAG_IDS)
def test_noiseless_receive_equals_the_full_block(targets, lags):
    got = receive(receive_radar, targets, 0.0, np.random.default_rng(1), lags)
    want = receive(radar_oracle.receive_radar, targets, 0.0, None, lags)
    assert_gated_equal(got, want, lags, FRAMES)


@pytest.mark.parametrize("lags", LAG_CASES, ids=LAG_IDS)
def test_frame_zero_row_zero_is_the_passed_values(lags):
    # With noise too, the draw writes the receiver's own frame-0 values in
    # row 0 unchanged, so the Doppler phases and the CFAR read one draw.
    starts = np.arange(FRAMES) * FRAME_LEN
    args = (TX[None, 0], later_of(TX[None]), [[TARGET]], BF, FRAME_LEN, starts, 1.0)
    [combined], draw = receive_radar(*args, [np.random.default_rng(5)])
    values = correlation_value_at(cross_spectrum(TX[0], combined), lags)
    gated = draw(np.zeros(len(lags), dtype=int), lags, values)
    assert gated.shape == (len(lags), FRAMES, 4)
    assert gated[:, 0, 0].tobytes() == np.asarray(values, dtype=complex).tobytes()


def test_one_cell_twice_draws_one_value():
    # Two targets in one cell give one lag twice: its two kernels are equal,
    # so the noisy draw must give both columns the same values (a Gram of
    # rank D - 1, factored through its eigendecomposition).
    for seed in range(8):
        _, gated = receive(receive_radar, [TARGET], 1.0, np.random.default_rng(seed), [LAG, LAG])
        scale = np.max(np.abs(gated))
        assert np.max(np.abs(gated[:, 0] - gated[:, 1])) <= 1e-12 * scale


UPPER = np.triu_indices(4, 1)


def features(fn, seed):
    """Per draw: the real and imaginary parts of every frame's gated output
    of every RF chain at the kernel lag; the gated covariance sum_f y_f y_f^H
    that MUSIC reads, as its real diagonal and the real and imaginary parts
    of its strict upper triangle; and frame 0's correlation power at the
    target's cell."""
    combined = np.empty((DRAWS, FRAME_LEN), dtype=complex)
    gated = np.empty((DRAWS, FRAMES, 1, 4), dtype=complex)
    for i in range(DRAWS):
        combined[i], gated[i] = receive(
            fn, [TARGET], 1.0, np.random.default_rng([seed, i]), [LAG]
        )
    power = np.abs(np.fft.ifft(cross_spectrum(TX[0], combined))[:, PEAK_CELL]) ** 2
    flat = gated.reshape(DRAWS, -1)
    cov = np.einsum("nfi,nfj->nij", gated[:, :, 0], gated[:, :, 0].conj())
    entries = np.concatenate(
        [cov[:, range(4), range(4)].real, cov[:, UPPER[0], UPPER[1]].real,
         cov[:, UPPER[0], UPPER[1]].imag],
        axis=1,
    )
    return np.concatenate([flat.real, flat.imag], axis=1), entries, power


@pytest.fixture(scope="module")
def samples():
    """(reduced, block) features with one kernel lag."""
    return features(receive_radar, 1), features(radar_oracle.receive_radar, 2)


def two_sample_z(x, y):
    """Welch z of the column means of two (draws, features) samples."""
    return (x.mean(axis=0) - y.mean(axis=0)) / np.sqrt(
        x.var(axis=0) / len(x) + y.var(axis=0) / len(y)
    )


def variances_z(x, y):
    """Welch z of the column variances of two (draws, features) samples."""
    return two_sample_z((x - x.mean(axis=0)) ** 2, (y - y.mean(axis=0)) ** 2)


# At most 24 features per test; |z| < 5 fails a true null with a chance of
# about 1.4e-5 over all of them.
Z_LIMIT = 5.0


def test_gated_output_means_agree(samples):
    (reduced, *_), (block, *_) = samples
    z = two_sample_z(reduced, block)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_gated_output_variances_agree(samples):
    (reduced, *_), (block, *_) = samples
    z = variances_z(reduced, block)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_gated_covariance_entry_means_agree(samples):
    (_, reduced, _), (_, block, _) = samples
    z = two_sample_z(reduced, block)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_gated_covariance_entry_variances_agree(samples):
    # The variances of the entries' parts are fourth moments of the gated
    # outputs: they see the correlation between RF chains, not only its size.
    (_, reduced, _), (_, block, _) = samples
    z = variances_z(reduced, block)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_frame_zero_cfar_power_has_one_distribution(samples):
    (*_, reduced), (*_, block) = samples
    # Two-sample Kolmogorov-Smirnov statistic; at 2500 draws a side its 1e-4
    # critical value is sqrt(-log(0.5e-4) / 2) * sqrt(2 / 2500) = 0.0629.
    grid = np.sort(np.concatenate([reduced, block]))
    cdf = [np.searchsorted(np.sort(x), grid, side="right") / x.size for x in (reduced, block)]
    assert np.max(np.abs(cdf[0] - cdf[1])) < 0.0629


# Two lags K samples apart: each kernel meets the other at the codeword's
# side peak, so the kernels' Gram has -eta, about 0.26 of its diagonal, off
# the diagonal, and the two lags' noise is correlated in every row.
SIDE_LAGS = [LAG, LAG + K]


def side_products(fn, seed):
    """Per draw: the real and imaginary parts of g_1 conj(g_2), the two
    lags' gated outputs, of every frame and RF chain."""
    prods = np.empty((DRAWS, FRAMES, 4), dtype=complex)
    for i in range(DRAWS):
        _, gated = receive(fn, [TARGET], 1.0, np.random.default_rng([seed, i]), SIDE_LAGS)
        prods[i] = gated[:, 0] * gated[:, 1].conj()
    flat = prods.reshape(DRAWS, -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def test_gated_outputs_of_lags_k_apart_correlate_as_the_block():
    z = two_sample_z(side_products(receive_radar, 3), side_products(radar_oracle.receive_radar, 4))
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


SCENE_FRAMES, SCENE_K = 4, 127
SCENE_TX = 6.0 * encode_batch(
    np.random.default_rng(8).integers(0, 2, (SCENE_FRAMES, SCENE_K), dtype=np.int8),
    ModulationParams(SCENE_K),
)


def scene_target(delay, doppler):
    return RadarTarget(gain=0.4 - 0.3j, angle_rad=0.35, delay=delay, doppler=doppler)


# (frame_len, frames, target, lags), each lag in samples.
SCENE_CASES = {
    "doppler-lag-off-delay": (1024, 4, scene_target(40.3, 6e-5), [40.33]),
    # The codeword runs past sample N-1 and wraps, so the Doppler ramp jumps
    # there; one lag is negative and one beyond the frame.
    "wrapping-delay": (1024, 4, scene_target(1000.7, -2e-3), [-0.4, 1024 + 6.2]),
    # The kernel is the waveform itself: the span has rank one.
    "zero-doppler-lag-on-delay": (1024, 4, scene_target(40.3, 0.0), [40.3]),
    "frame-is-codeword": (128, 4, scene_target(40.3, 2e-3), [40.1]),
    "one-frame": (1024, 1, scene_target(40.3, 6e-5), [40.33]),
}


@pytest.mark.parametrize("case", list(SCENE_CASES))
def test_noiseless_receive_equals_the_full_block_at_scene_size(case):
    frame_len, frames, target, lags = SCENE_CASES[case]
    tx = SCENE_TX[:frames]
    got = receive(receive_radar, [target], 0.0, np.random.default_rng(1), lags, tx, frame_len)
    want = receive(radar_oracle.receive_radar, [target], 0.0, None, lags, tx, frame_len)
    assert_gated_equal(got, want, lags, frames)


def test_block_rows_equal_blocks_of_one():
    # Three trials whose targets differ in their gains, with noise: each
    # trial's combined row and gated outputs are those of the trial received
    # alone, from the same generator, since every draw stays per trial.
    gains = [0.4 - 0.3j, -0.1 + 0.7j, 0.25j]
    tx = np.stack([TX, 0.5 * TX, TX[::-1]])
    targets = [[RadarTarget(g, TARGET.angle_rad, TARGET.delay, TARGET.doppler)] for g in gains]
    starts = np.arange(FRAMES) * FRAME_LEN
    combined, draw = receive_radar(
        tx[:, 0], later_of(tx), targets, BF, FRAME_LEN, starts, 1.0,
        [np.random.default_rng([9, b]) for b in range(3)],
    )
    assert combined.shape == (3, FRAME_LEN)
    values = correlation_value_at(cross_spectrum(tx[:, 0], combined), [[LAG]])[:, 0]
    got = draw(range(3), [LAG] * 3, values)
    for b in range(3):
        [alone], alone_draw = receive_radar(
            tx[b, None, 0], later_of(tx[b, None]), [targets[b]], BF, FRAME_LEN, starts, 1.0,
            [np.random.default_rng([9, b])],
        )
        scale = np.max(np.abs(alone))
        assert np.max(np.abs(combined[b] - alone)) <= 1e-12 * scale
        want = alone_draw([0], [LAG], values[b, None])
        assert np.max(np.abs(got[b] - want[0])) <= 1e-12 * np.max(np.abs(want))


def test_two_target_block_equals_blocks_of_one(monkeypatch):
    # Two targets of different Doppler, and three trials that detect 0, 1
    # and 2 of them: the block groups its trials by detection count, yet
    # each trial's gated outputs are those of the trial received alone, and
    # the trials per Gram pass change no output bit.  Only the trials that
    # reach the draw have their later frames read.
    second = RadarTarget(gain=0.2j, angle_rad=-0.1, delay=9.6, doppler=-0.03)
    gains = [(0.4 - 0.3j, 0.2j), (-0.1 + 0.7j, 0.5), (0.25j, -0.3 + 0.1j)]
    tx = np.stack([TX, 0.5 * TX, TX[::-1]])
    targets = [
        [RadarTarget(g, tg.angle_rad, tg.delay, tg.doppler) for g, tg in zip(pair, geometry)]
        for pair, geometry in zip(gains, [[TARGET, second]] * 3)
    ]
    starts = np.arange(FRAMES) * FRAME_LEN
    rows, lags = np.array([1, 2, 2]), np.array([LAG, LAG, 9.4])

    def block(chunk):
        monkeypatch.setattr(channel, "_GRAM_CHUNK", chunk)
        read = []

        def later(trials):
            read.append(list(trials))
            return tx[trials, 1:]

        rngs = [np.random.default_rng([11, b]) for b in range(3)]
        combined, draw = receive_radar(tx[:, 0], later, targets, BF, FRAME_LEN, starts, 1.0, rngs)
        values = correlation_value_at(cross_spectrum(tx[rows, 0], combined[rows]), lags[:, None])
        assert read == []
        gated = draw(rows, lags, values[:, 0])
        assert read == [[1, 2]]
        return combined, values[:, 0], gated

    combined, values, gated = block(channel._GRAM_CHUNK)
    assert gated.shape == (3, FRAMES, 4)
    for chunk in (1, _RADAR_BLOCK):
        assert block(chunk)[2].tobytes() == gated.tobytes()
    for b in (1, 2):
        mine = rows == b
        [alone], draw = receive_radar(
            tx[b, None, 0], later_of(tx[b, None]), [targets[b]], BF, FRAME_LEN, starts, 1.0,
            [np.random.default_rng([11, b])],
        )
        assert np.max(np.abs(combined[b] - alone)) <= 1e-12 * np.max(np.abs(alone))
        want = draw(np.zeros(mine.sum(), dtype=int), lags[mine], values[mine])
        assert np.max(np.abs(gated[mine] - want)) <= 1e-12 * np.max(np.abs(want))


def test_block_trials_must_share_the_targets_geometry():
    moved = RadarTarget(TARGET.gain, TARGET.angle_rad, TARGET.delay + 1.0, TARGET.doppler)
    with pytest.raises(ValueError, match="share"):
        receive_radar(
            np.stack([TX[0], TX[0]]), later_of(np.stack([TX, TX])), [[TARGET], [moved]], BF,
            FRAME_LEN, np.arange(FRAMES) * FRAME_LEN, 1.0,
            [np.random.default_rng(b) for b in range(2)],
        )
