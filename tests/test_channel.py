"""Array geometry, link budgets, and discrete-time channel application."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moczsim import (
    ArrayConfig,
    LinkBudget,
    ModulationParams,
    RadarTarget,
    SPEED_OF_LIGHT,
    apply_radar_channel,
    awgn,
    cross_correlate,
    dft_codebook,
    encode,
    encode_batch,
    eval_on_zero_grid,
    fractional_delay,
    make_beamformers,
    radar_gain,
    steering,
)
from moczsim.channel import _codeword_gram, _delay_ramp
from moczsim.simulate import _SELECTIVE_TAP_POWERS, _fade_batch, _fade_taps
from fade_oracle import fade_samples


class TestSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(steering(0.0, 8), np.ones(8), atol=1e-15)

    def test_endfire_alternates(self):
        np.testing.assert_allclose(
            steering(np.pi / 2, 6), [1, -1, 1, -1, 1, -1], atol=1e-12
        )

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            steering(1.8, 8)

    def test_array_columns_equal_the_scalar_calls_bitwise(self):
        angles = np.concatenate([np.linspace(-np.pi / 2, np.pi / 2, 37), [0.3e-3, -1.1]])
        manifold = steering(angles, 24)
        assert manifold.shape == (24, angles.size)
        for col, angle in enumerate(angles):
            assert manifold[:, col].tobytes() == steering(float(angle), 24).tobytes()

    @pytest.mark.parametrize("bad", [1.8, -np.pi / 2 - 1e-9, np.nan])
    def test_one_bad_angle_in_an_array_raises(self, bad):
        with pytest.raises(ValueError, match="steering angle"):
            steering(np.array([0.0, 0.4, bad, -0.2]), 8)

    @settings(max_examples=50, deadline=None)
    @given(angle=st.floats(min_value=-np.pi / 2, max_value=np.pi / 2))
    def test_unit_modulus_entries_give_sqrt_n_norm(self, angle):
        a = steering(angle, 32)
        assert np.linalg.norm(a) == pytest.approx(np.sqrt(32), abs=1e-9)


class TestBeamformers:
    def test_codebook_is_orthonormal(self):
        _, book = dft_codebook(64)
        np.testing.assert_allclose(book.conj().T @ book, np.eye(64), atol=1e-9)

    def test_shapes_and_orthonormal_columns(self):
        bf = make_beamformers((-np.pi / 12, np.pi / 12), ArrayConfig(64, 4))
        assert bf.rx_matrix.shape == (64, 4)
        np.testing.assert_allclose(
            bf.rx_matrix.conj().T @ bf.rx_matrix, np.eye(4), atol=1e-9
        )
        assert np.linalg.norm(bf.tx_beam) == pytest.approx(1.0, abs=1e-12)

    def test_full_array_gain_on_boresight(self):
        center = 0.12
        bf = make_beamformers((center - np.pi / 16, center + np.pi / 16), ArrayConfig(64, 4))
        a = steering(center, 64)
        assert abs(bf.tx_beam.conj() @ a) == pytest.approx(np.sqrt(64), abs=1e-9)

    def test_combiner_is_the_reduced_center_response_at_unit_norm(self):
        bf = make_beamformers((-0.2, 0.3), ArrayConfig(64, 4))
        b = bf.rx_matrix.conj().T @ steering(0.05, 64)
        np.testing.assert_allclose(bf.basis[:, 0], b / np.linalg.norm(b), atol=1e-12)
        assert np.linalg.norm(bf.basis[:, 0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_rf", [1, 2, 4, 64])
    @pytest.mark.parametrize(
        "segment", [(-np.pi / 32, np.pi / 32), (-0.2, 0.3), (-np.pi / 2, -np.pi / 3)]
    )
    def test_basis_is_unitary_with_the_combiner_first(self, n_rf, segment):
        bf = make_beamformers(segment, ArrayConfig(64, n_rf))
        assert bf.basis.shape == (n_rf, n_rf)
        b = bf.rx_matrix.conj().T @ steering(sum(segment) / 2.0, 64)
        assert np.max(np.abs(bf.basis[:, 0] - b / np.linalg.norm(b))) <= 1e-15
        assert np.max(np.abs(bf.basis.conj().T @ bf.basis - np.eye(n_rf))) <= 1e-14

    def test_selected_beams_surround_the_segment(self):
        bf = make_beamformers((-np.pi / 32, np.pi / 32), ArrayConfig(64, 4))
        angles, book = dft_codebook(64)
        chosen = [int(np.argmax(np.abs(book.conj().T @ col))) for col in bf.rx_matrix.T]
        assert all(abs(angles[d]) < np.pi / 8 for d in chosen)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_gain_bound_and_reduction_isometry(self, seed):
        rng = np.random.default_rng(seed)
        bf = make_beamformers((0.1 - np.pi / 16, 0.1 + np.pi / 16), ArrayConfig(32, 4))
        angle = rng.uniform(-np.pi / 2, np.pi / 2)
        a = steering(angle, 32)
        assert abs(a.conj() @ bf.tx_beam) <= np.sqrt(32) + 1e-9
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.linalg.norm(bf.rx_matrix.conj().T @ v) <= np.linalg.norm(v) + 1e-9

    def test_rf_chain_bounds(self):
        with pytest.raises(ValueError):
            ArrayConfig(num_antennas=4, num_rf_chains=5)
        with pytest.raises(ValueError):
            ArrayConfig(num_antennas=4, num_rf_chains=0)


class TestGains:
    def test_radar_gain_frozen_value(self):
        link = LinkBudget(carrier_hz=60.0e9)
        assert radar_gain(link, 10.0, 50.0) == pytest.approx(2.01e-14, rel=2e-2)
        lam = SPEED_OF_LIGHT / 60.0e9
        exact = lam**2 * 10.0 / ((4 * np.pi) ** 3 * 50.0**4)
        assert radar_gain(link, 10.0, 50.0) == pytest.approx(exact, rel=1e-12)

    def test_radar_gain_r4_law(self):
        link = LinkBudget()
        drop_db = 10 * np.log10(radar_gain(link, 10.0, 50.0) / radar_gain(link, 10.0, 100.0))
        assert drop_db == pytest.approx(12.04, abs=0.01)

    def test_radar_gain_linear_in_rcs(self):
        link = LinkBudget()
        ratio = radar_gain(link, 13.0, 50.0) / radar_gain(link, 10.0, 50.0)
        assert 10 * np.log10(ratio) == pytest.approx(3.0, abs=1e-9)

    def test_radar_gain_rejects_zero_range(self):
        with pytest.raises(ValueError):
            radar_gain(LinkBudget(), 10.0, 0.0)



class TestFractionalDelay:
    @settings(max_examples=40, deadline=None)
    @given(shift=st.floats(min_value=0.0, max_value=20.0))
    def test_energy_conserved(self, shift):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        y = fractional_delay(x, shift, 64)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-9)

    def test_integer_shift_is_exact_roll(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = fractional_delay(x, 7.0, 32)
        want = np.roll(np.concatenate([x, np.zeros(16)]), 7)
        np.testing.assert_allclose(y, want, atol=1e-12)

    def test_cannot_truncate(self):
        with pytest.raises(ValueError):
            fractional_delay(np.ones(8), 1.0, 4)


class TestRadarChannel:
    def setup_method(self):
        self.cfg = ArrayConfig(16, 4)
        self.bf = make_beamformers((-np.pi / 16, np.pi / 16), self.cfg)
        self.params = ModulationParams(15)
        self.x = encode(np.random.default_rng(0).integers(0, 2, 15), self.params)

    def test_boresight_zero_delay_is_rank_one_scaling(self):
        tg = RadarTarget(gain=0.5 + 0.1j, angle_rad=0.0, delay=0.0, doppler=0.0)
        y = apply_radar_channel(self.x, [tg], self.bf, frame_len=16)
        a = steering(0.0, 16)
        spatial = tg.gain * (self.bf.rx_matrix.conj().T @ a) * (a.conj() @ self.bf.tx_beam)
        np.testing.assert_allclose(y, spatial[:, None] * self.x[None, :], atol=1e-9)

    def test_integer_delay_shifts_correlation_peak(self):
        tg = RadarTarget(gain=1.0, angle_rad=0.0, delay=7.0, doppler=0.0)
        y = apply_radar_channel(self.x, [tg], self.bf, frame_len=64)
        profile = cross_correlate(self.x, y[0])
        assert int(np.argmax(np.abs(profile))) == 7

    def test_doppler_is_a_pure_phase_ramp(self):
        tg = RadarTarget(gain=1.0, angle_rad=0.0, delay=0.0, doppler=0.01)
        y = apply_radar_channel(self.x, [tg], self.bf, frame_len=16)
        ratio = y[0] / (self.x * (self.bf.rx_matrix[:, 0].conj() @ steering(0.0, 16)))
        mags = np.abs(ratio)
        np.testing.assert_allclose(mags, mags[0], atol=1e-9)
        steps = np.angle(ratio[1:] / ratio[:-1])
        np.testing.assert_allclose(steps, 2 * np.pi * 0.01, atol=1e-9)

    def test_start_advances_doppler_phase(self):
        tg = RadarTarget(gain=1.0, angle_rad=0.0, delay=0.0, doppler=1e-3)
        y0 = apply_radar_channel(self.x, [tg], self.bf, frame_len=16, start=0)
        # 250 samples are a quarter Doppler cycle, so the phase advances by pi/2
        y1 = apply_radar_channel(self.x, [tg], self.bf, frame_len=16, start=250)
        np.testing.assert_allclose(y1, 1j * y0, atol=1e-9)

    def test_no_targets_returns_zeros(self):
        y = apply_radar_channel(self.x, [], self.bf, frame_len=32)
        assert y.shape == (4, 32)
        assert np.all(y == 0)

    TWO_TARGETS = (
        RadarTarget(gain=0.7 - 0.2j, angle_rad=0.05, delay=3.3, doppler=2e-3),
        RadarTarget(gain=0.1j, angle_rad=-0.1, delay=21.6, doppler=-7e-4),
    )

    def frames(self, count=6):
        rng = np.random.default_rng(5)
        return np.stack([encode(rng.integers(0, 2, 15), self.params) for _ in range(count)])

    def test_frame_block_rows_equal_per_frame_calls(self):
        frames = self.frames()
        targets = list(self.TWO_TARGETS)
        starts = np.arange(6) * 32
        block = apply_radar_channel(frames, targets, self.bf, frame_len=32, start=starts)
        assert block.shape == (6, 4, 32)
        for j in range(6):
            one = apply_radar_channel(frames[j], targets, self.bf, frame_len=32, start=j * 32)
            assert np.array_equal(block[j], one)

    def test_two_targets_are_the_sum_of_single_target_calls(self):
        frames = self.frames()
        starts = np.arange(6) * 32 + 1000
        both = apply_radar_channel(
            frames, list(self.TWO_TARGETS), self.bf, frame_len=32, start=starts
        )
        each = sum(
            apply_radar_channel(frames, [tg], self.bf, frame_len=32, start=starts)
            for tg in self.TWO_TARGETS
        )
        assert np.max(np.abs(both - each)) <= 1e-12 * np.max(np.abs(each))

    @pytest.mark.parametrize("start", [2700, np.arange(6) * 32 + 1000])
    def test_doppler_matches_the_dense_phase_oracle(self, start):
        # Oracle: exp(2i pi nu k) evaluated at every (frame, sample) sample k.
        frames = self.frames()
        tg = self.TWO_TARGETS[0]
        got = apply_radar_channel(frames, [tg], self.bf, frame_len=32, start=start)
        a = steering(tg.angle_rad, 16)
        spatial = tg.gain * (self.bf.rx_matrix.conj().T @ a) * (a.conj() @ self.bf.tx_beam)
        k = np.asarray(start)[..., None] + np.arange(32)
        rotated = fractional_delay(frames, 3.3, 32) * np.exp(2j * np.pi * tg.doppler * k)
        want = spatial[:, None] * rotated[:, None, :]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_frame_block_starts_advance_doppler_phase(self):
        tg = RadarTarget(gain=1.0, angle_rad=0.0, delay=0.0, doppler=2e-3)
        starts = np.arange(3) * 130  # 0.26 Doppler cycles per frame
        block = apply_radar_channel(
            np.tile(self.x, (3, 1)), [tg], self.bf, frame_len=16, start=starts
        )
        for j in range(3):
            np.testing.assert_allclose(
                block[j], block[0] * np.exp(2j * np.pi * 2e-3 * starts[j]), atol=1e-9
            )

    def test_frame_block_without_targets_is_zero(self):
        y = apply_radar_channel(np.ones((3, 16)), [], self.bf, frame_len=32)
        assert y.shape == (3, 4, 32)
        assert np.all(y == 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delay", -0.1),
            ("delay", math.nan),
            ("angle_rad", 2.0),
            ("angle_rad", math.nan),
            ("doppler", math.inf),
            ("doppler", math.nan),
        ],
    )
    def test_target_validation(self, field, value):
        # NaN fails every comparison, so each bound is written to reject it.
        fields = {"gain": 1.0, "angle_rad": 0.0, "delay": 0.0, "doppler": 0.0}
        with pytest.raises(ValueError, match=field.split("_")[0]):
            RadarTarget(**{**fields, field: value})


def gram_oracle(x, n, targets, lags):
    """A_f^H A_f of every frame of B trials' (B, F, L) codewords ``x``, each
    column formed at n samples: the targets' delayed, Doppler-ramped
    waveforms s[k - tau] e^{2i pi nu k}, as ``apply_radar_channel`` forms
    them, then each trial's codeword delayed by each of its (B, D) lags."""
    ramp = np.exp(2j * np.pi * np.multiply.outer([tg.doppler for tg in targets], np.arange(n)))
    columns = [fractional_delay(x, tg.delay, n) * r for tg, r in zip(targets, ramp)]
    columns += [
        np.stack([fractional_delay(frames, lag, n) for frames, lag in zip(x, trial_lags)])
        for trial_lags in np.transpose(lags)
    ]
    a = np.stack(columns, axis=-1)  # (B, F, n, C)
    return a.conj().swapaxes(-1, -2) @ a


def gram_target(delay, doppler):
    return RadarTarget(gain=1.0, angle_rad=0.0, delay=delay, doppler=doppler)


# (K, frame_len, frames, targets, (B, D) lags), delays and lags in samples.
GRAM_CASES = {
    # The delayed codeword runs past sample N-1 and wraps, where the Doppler
    # ramp jumps; one lag is negative, one beyond the frame, one wraps too.
    "wrap-under-doppler": (
        127, 1024, 3, [gram_target(1000.7, -2e-3)], [[-0.4, 1024 + 6.2], [40.0, 1000.9]]
    ),
    # L = N, so lags -(L-1)..L-1 alias modulo N.
    "frame-is-codeword": (127, 128, 2, [gram_target(40.3, 2e-3)], [[40.1], [127.6]]),
    "one-frame": (127, 1024, 1, [gram_target(40.3, 6e-5)], [[40.33], [39.0]]),
    "two-dopplers": (
        127, 1024, 2, [gram_target(40.3, 6e-5), gram_target(90.7, -2e-3)], [[40.33, 90.6]]
    ),
    # Two detections in one cell: the span has lower rank.
    "one-lag-twice": (127, 1024, 2, [gram_target(40.3, 6e-5)], [[40.33, 40.33]]),
    "no-lag": (127, 1024, 2, [gram_target(40.3, 6e-5)], np.zeros((2, 0))),
    # M = 16 = N: the lag window covers the frame but for one lag.
    "short-frame": (
        7, 16, 3, [gram_target(3.4, 0.02), gram_target(14.4, -0.03)], [[3.1, 15.0], [9.0, 9.0]]
    ),
}


@pytest.mark.parametrize("case", list(GRAM_CASES))
def test_codeword_gram_equals_the_gram_of_the_formed_columns(case):
    # The (D, T) block k^H u of A_f^H A_f: the kernels' rows, the targets' columns.
    k, n, frames, targets, lags = GRAM_CASES[case]
    lags = np.asarray(lags, dtype=float)
    rng = np.random.default_rng(len(case))
    msgs = rng.integers(0, 2, (len(lags) * frames, k), dtype=np.int8)
    x = 6.0 * encode_batch(msgs, ModulationParams(k)).reshape(len(lags), frames, k + 1)
    got = _codeword_gram(x, n, targets, np.moveaxis(_delay_ramp(n, lags), 0, -1))
    t = len(targets)
    want = gram_oracle(x, n, targets, lags)[..., t:, :t]
    assert got.shape == want.shape == (len(lags), frames, lags.shape[1], t)
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


class TestNoise:
    def test_zero_variance_is_identity(self):
        # A copy of the input, and nothing is drawn.
        x = np.arange(5, dtype=complex)
        rng = np.random.default_rng(0)
        got = awgn(x, 0.0, rng)
        assert got is not x
        np.testing.assert_array_equal(got, x)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_empirical_variance(self):
        rng = np.random.default_rng(9)
        noise = awgn(np.zeros(1_000_000, dtype=complex), 0.25, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.25, rel=0.01)

    def test_seed_determinism(self):
        x = np.zeros(64, dtype=complex)
        np.testing.assert_array_equal(
            awgn(x, 1.0, np.random.default_rng(1234)), awgn(x, 1.0, np.random.default_rng(1234))
        )

    def test_negative_variance_raises(self):
        with pytest.raises(ValueError):
            awgn(np.ones(3), -0.1, np.random.default_rng(0))

    def test_whole_array_draws_real_block_then_imaginary_block(self):
        x = np.full((3, 8), 1.0 + 2.0j)
        ref = np.random.default_rng(11)
        want = x + np.sqrt(0.5) * (
            ref.standard_normal(x.shape) + 1j * ref.standard_normal(x.shape)
        )
        assert np.array_equal(awgn(x, 1.0, np.random.default_rng(11)), want)

    def test_one_generator_per_row_draws_each_row_as_alone(self):
        # A block of rows, each drawing from its own generator: row r is
        # bitwise the call on row r alone with its generator, and each
        # generator ends where that call leaves it.
        x = np.arange(3 * 2 * 8).reshape(3, 2, 8) * (1.0 + 0.5j)
        seeds = [5, 6, 7]
        rngs = [np.random.default_rng(s) for s in seeds]
        got = awgn(x, 0.3, rngs)
        for row, seed, rng in zip(range(3), seeds, rngs):
            alone = np.random.default_rng(seed)
            assert got[row].tobytes() == awgn(x[row], 0.3, alone).tobytes()
            assert rng.bit_generator.state == alone.bit_generator.state
        with pytest.raises(ValueError):
            awgn(x, 0.3, rngs[:2])

    def test_rician_factor_controls_power_split(self):
        taps = _fade_taps("rician_selective", 40_000, np.random.default_rng(10))
        power = np.abs(taps) ** 2
        mean = power.mean(axis=0)
        np.testing.assert_allclose(mean, _SELECTIVE_TAP_POWERS, rtol=0.02)
        # Rician factor K = 10: Var(|h|^2) / E[|h|^2]^2 = (1 + 2K) / (1 + K)^2
        np.testing.assert_allclose(power.var(axis=0) / mean**2, 21 / 121, rtol=0.05)


def grid_pair(x, radius, k):
    """Values of the rows of x on the zero grids of radius R and 1/R."""
    return [eval_on_zero_grid(x, r, k) for r in (radius, 1.0 / radius)]


def relative_error(got, want) -> float:
    # Relative to the largest value: a grid point at a designed zero is ~0.
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def fade_inputs(x, msgs, radius, k):
    """Each bit's value at its signal point (R a_k cleared, a_k / R set), and
    the (B, K, 2) mask that ``_fade_batch`` takes."""
    bits = np.asarray(msgs).astype(bool)
    outer, inner = grid_pair(x, radius, k)
    mask = np.repeat(-np.asarray(msgs, dtype=np.int64)[..., None], 2, axis=2)
    return np.where(bits, inner, outer), mask


def faded_values(values, mask, model, rng, radius):
    """``values`` faded as ``run_ber`` fades them: ``_fade_batch`` adds the
    channel's logs to theirs, and exp gives the faded values back."""
    logs = np.log(values)
    grids = np.empty((2,) + values.shape, dtype=complex)
    assert _fade_batch(logs, mask, model, rng, radius, grids, np.empty(values.shape)) is logs
    return np.exp(logs)


class TestSelectiveFade:
    def test_rows_are_linear_convolutions_with_the_drawn_taps(self):
        # The taps are the Rician draws in delay order, tap 0 first, and the
        # faded values are those of each packet's full linear convolution
        # with its taps (K+4 samples).
        p = ModulationParams(31)
        radius = p.outer_radius
        msgs = np.random.default_rng(20).integers(0, 2, (6, 31))
        tx = encode_batch(msgs, p)
        values, mask = fade_inputs(tx, msgs, radius, 31)
        values = faded_values(values, mask, "rician_selective", np.random.default_rng(21), radius)
        taps = _fade_taps("rician_selective", 6, np.random.default_rng(21))
        ref = np.random.default_rng(21)
        psi = ref.uniform(0.0, 2.0 * np.pi, (6, 4))
        diffuse = ref.standard_normal((6, 4)) + 1j * ref.standard_normal((6, 4))
        want = np.sqrt(_SELECTIVE_TAP_POWERS) * (
            np.sqrt(10 / 11) * np.exp(1j * psi) + np.sqrt(1 / 22) * diffuse
        )
        np.testing.assert_allclose(taps, want, rtol=1e-15, atol=0)
        rows = np.array([np.convolve(x, h) for x, h in zip(tx, want)])
        assert rows.shape == (6, 32 + 3)
        assert relative_error(values, fade_inputs(rows, msgs, radius, 31)[0]) < 1e-12

    def test_draws_a_uniform_block_then_two_normal_blocks(self):
        # run_ber draws a block's messages, then its fade, from the block's
        # one stream, so the tap draws fix the channels of the whole block.
        rng = np.random.default_rng(22)
        values = np.ones((5, 9), dtype=complex)
        mask = np.zeros((5, 9, 2), dtype=np.int64)
        faded_values(values, mask, "rician_selective", rng, 1.1)
        ref = np.random.default_rng(22)
        ref.uniform(0.0, 2.0 * np.pi, (5, 4))
        ref.standard_normal((5, 4))
        ref.standard_normal((5, 4))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("k", [31, 127, 511])
@pytest.mark.parametrize("model", ["rayleigh_flat", "rician_selective"])
def test_grid_fade_is_the_grid_of_the_convolved_packets(model, k):
    # The channel multiplies the packet's polynomial by its own, so fading
    # each bit's clean value at its signal point must give the value there
    # of the packets convolved with the same draws in the sample domain.
    p = ModulationParams(k)
    radius = p.outer_radius
    msgs = np.random.default_rng(k).integers(0, 2, (64, k))
    tx = encode_batch(msgs, p)
    values, mask = fade_inputs(tx, msgs, radius, k)
    values = faded_values(values, mask, model, np.random.default_rng(k + 1), radius)
    rows = fade_samples(tx, model, np.random.default_rng(k + 1))
    assert relative_error(values, fade_inputs(rows, msgs, radius, k)[0]) < 1e-12


def test_radar_target_from_geometry_two_way_scalings():
    link = LinkBudget(carrier_hz=60.0e9)
    tg = RadarTarget.from_geometry(link, 50.0, 10.0, 0.0, 10.0, 0.0)
    # The expressions of from_geometry, so the channel sees these floats.
    assert tg.delay == 2.0 * 50.0 / SPEED_OF_LIGHT / link.sample_period
    assert tg.doppler == 2.0 * 10.0 * 60e9 / SPEED_OF_LIGHT * link.sample_period
    assert abs(tg.gain) ** 2 == pytest.approx(radar_gain(link, 10.0, 50.0), rel=1e-12)
