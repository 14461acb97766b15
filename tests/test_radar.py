"""Detection and estimation operators, each checked against an independent route."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moczsim import (
    ArrayConfig,
    CfarConfig,
    ModulationParams,
    ambiguity_function,
    autocorrelation,
    calibrate_os_alpha,
    cluster_detections,
    correlation_value_at,
    cross_correlate,
    cross_spectrum,
    dft_codebook,
    encode,
    estimate_delay,
    estimate_doppler,
    fractional_delay,
    make_beamformers,
    music_angles,
    os_cfar,
    sample_covariance,
    steering,
)
from moczsim.channel import _circulant_index, _gram_side, _target_ramps
from moczsim.huffman import _log_basis
from moczsim.radar import (
    _STAGE_TWO_SHARE,
    _music_scan,
    _parabolic_offset,
    _refine_kernel,
    _stage_two_share,
)
from cfar_gather import os_cfar as gather_os_cfar


def direct_cross_correlation(x, y):
    """O(N^2) double-sum oracle for the circular cross-correlation."""
    n = y.size
    xp = np.zeros(n, dtype=complex)
    xp[: x.size] = x
    out = np.empty(n, dtype=complex)
    for lag in range(n):
        out[lag] = sum(np.conj(xp[(m - lag) % n]) * y[m] for m in range(n))
    return out


class TestCrossCorrelate:
    def test_self_correlation_peaks_at_zero(self):
        x = encode([1, 0, 1, 1], ModulationParams(4))
        profile = cross_correlate(x, np.concatenate([x, np.zeros(11)]))
        assert int(np.argmax(np.abs(profile))) == 0
        assert abs(profile[0]) == pytest.approx(1.0, abs=1e-9)

    def test_circular_shift_moves_argmax(self):
        x = encode([0, 1, 1, 0, 1], ModulationParams(5))
        frame = np.roll(np.concatenate([x, np.zeros(10)]), 9)
        assert int(np.argmax(np.abs(cross_correlate(x, frame)))) == 9

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(3)
        for n in (17, 64):
            x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = cross_correlate(x, y)
            want = direct_cross_correlation(x, y)
            np.testing.assert_allclose(got, want, atol=1e-9 * np.max(np.abs(want)))

    def test_huffman_peak_sidelobe_ratio_is_side_peak(self):
        p = ModulationParams(31)
        x = encode(np.random.default_rng(0).integers(0, 2, 31), p)
        profile = np.abs(cross_correlate(x, np.concatenate([x, np.zeros(64 - 32)])))
        psl = np.max(profile[1:]) / profile[0]
        assert psl == pytest.approx(p.side_peak, abs=1e-9)

    def test_reference_longer_than_frame_raises(self):
        with pytest.raises(ValueError):
            cross_correlate(np.ones(8), np.ones(4))

    def test_frame_block_rows_equal_per_frame_calls(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        y = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        block = cross_correlate(x, y)
        assert block.shape == (5, 64)
        for j in range(5):
            assert np.array_equal(block[j], cross_correlate(x[j], y[j]))


class TestCalibration:
    def test_pfa_one_gives_zero_alpha(self):
        assert calibrate_os_alpha(12, 18, 1.0) == 0.0

    def test_alpha_decreases_with_pfa(self):
        alphas = [calibrate_os_alpha(12, 18, p) for p in (1e-6, 1e-4, 1e-2, 0.5)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_self_consistency_m24_k18(self):
        alpha = calibrate_os_alpha(12, 18, 1e-4)
        i = np.arange(18)
        pfa = np.prod((24 - i) / (24 - i + alpha))
        assert pfa == pytest.approx(1e-4, rel=1e-9)

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            calibrate_os_alpha(12, 25, 1e-4)
        with pytest.raises(ValueError):
            calibrate_os_alpha(12, 0, 1e-4)

    def test_default_config_value(self):
        # The value the earlier bracket-and-bisect solver returned.
        assert calibrate_os_alpha(12, 18, 1e-4) == pytest.approx(9.340804709624452, rel=1e-12)

    # Down to 1e-300, where alpha reaches ~1e301: no ceiling on alpha. Among
    # these, (1, 1, 1e-13) and (12, 2, 1e-30) need alpha > 1e12.
    @pytest.mark.parametrize("pfa", [0.5, 1e-2, 1e-4, 1e-13, 1e-30, 1e-100, 1e-300])
    @pytest.mark.parametrize("window", [1, 3, 12])
    def test_rank_one_closed_form(self, window, pfa):
        m_ref = 2 * window
        expected = m_ref * (1.0 / pfa - 1.0)
        assert calibrate_os_alpha(window, 1, pfa) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("pfa", [0.5, 1e-2, 1e-4, 1e-13, 1e-30, 1e-100, 1e-300])
    @pytest.mark.parametrize("window", [1, 3, 12])
    def test_rank_two_closed_form(self, window, pfa):
        # Positive root of (M + a)(M - 1 + a) = M(M - 1)/pfa, in the form
        # that does not cancel: a = 2c / (b + sqrt(b^2 + 4c)).
        m_ref = 2 * window
        b = 2.0 * m_ref - 1.0
        c = m_ref * (m_ref - 1.0) * (1.0 / pfa - 1.0)
        expected = 2.0 * c / (b + math.sqrt(b * b + 4.0 * c))
        assert calibrate_os_alpha(window, 2, pfa) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_multiplier_beyond_float_range_raises(self):
        # os_rank = 1 needs alpha = 2 * (1/pfa - 1), which overflows here.
        with pytest.raises(ValueError, match="beyond float range"):
            calibrate_os_alpha(1, 1, 1e-310)


def matched_os_cfar(power, cfg):
    """os_cfar's cells and thresholds, checked equal to the gather oracle's."""
    cells, thresholds = os_cfar(power, cfg)
    want_cells, want_thresholds = gather_os_cfar(power, cfg)
    assert np.array_equal(cells, want_cells)
    assert np.array_equal(thresholds, want_thresholds)
    return cells, thresholds


class TestOsCfar:
    def test_zero_alpha_detects_every_nonzero_cell(self):
        cfg = CfarConfig(window=4, guard=1, os_rank=6, pfa=0.5, alpha=0.0)
        cells, _ = os_cfar(np.ones(64), cfg)
        np.testing.assert_array_equal(cells, np.arange(64))

    def test_single_strong_target_in_flat_noise(self):
        cfg = CfarConfig()
        power = np.ones(256)
        power[100] = 100.0  # 20 dB above the flat floor
        cells, thresholds = os_cfar(power, cfg)
        assert cells.tolist() == [100]
        assert power[100] > thresholds[0]

    def test_flat_frame_above_unit_alpha_detects_nothing(self):
        cfg = CfarConfig(window=4, guard=1, os_rank=5, alpha=1.0)
        cells, thresholds = os_cfar(np.ones(64), cfg)
        assert cells.size == thresholds.size == 0
        assert np.issubdtype(cells.dtype, np.integer)
        assert cluster_detections(cells, np.ones(64), 64) == []

    @settings(max_examples=25, deadline=None)
    @given(log_scale=st.floats(min_value=-6.0, max_value=6.0), seed=st.integers(0, 2**32 - 1))
    def test_scaling_invariance(self, log_scale, seed):
        cfg = CfarConfig(pfa=1e-2)
        rng = np.random.default_rng(seed)
        profile = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        base_cells, base_thresholds = os_cfar(np.abs(profile) ** 2, cfg)
        cells, thresholds = os_cfar(np.abs(np.exp(log_scale) * profile) ** 2, cfg)
        np.testing.assert_array_equal(cells, base_cells)
        np.testing.assert_allclose(thresholds, np.exp(2 * log_scale) * base_thresholds, rtol=1e-9)

    def test_short_frame_raises(self):
        with pytest.raises(ValueError):
            os_cfar(np.ones(10), CfarConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CfarConfig(window=4, os_rank=9)
        with pytest.raises(ValueError):
            CfarConfig(pfa=0.0)

    @pytest.mark.parametrize("window,guard", [(1, 0), (2, 1), (3, 0), (4, 2)])
    def test_every_rank_matches_gather_oracle(self, window, guard):
        rng = np.random.default_rng(100 * window + guard)
        span = 2 * (window + guard) + 1
        for n in (span, span + 1, 3 * span + 4):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            power = np.abs(z) ** 2
            for rank in range(1, 2 * window + 1):
                for pfa in (1e-3, 0.2, 0.9):
                    cfg = CfarConfig(window=window, guard=guard, os_rank=rank, pfa=pfa)
                    matched_os_cfar(power, cfg)

    def test_shortest_frame_references_wrap_onto_themselves(self):
        cfg = CfarConfig(window=3, guard=1, os_rank=4, pfa=0.5, alpha=1.5)
        power = np.arange(1.0, 10.0)  # n == span == 9
        cells, thresholds = matched_os_cfar(power, cfg)
        # Cell 8 (power 9) sees 7, 6, 5 below and 2, 3, 4 across the wrap.
        assert cells[-1] == 8
        assert thresholds[-1] == pytest.approx(1.5 * 5.0)

    @pytest.mark.parametrize("rank", [1, 4, 8])
    def test_zero_alpha_matches_oracle_with_zero_cells(self, rank):
        cfg = CfarConfig(window=4, guard=1, os_rank=rank, pfa=0.5, alpha=0.0)
        rng = np.random.default_rng(rank)
        power = (rng.standard_normal(48) * (rng.random(48) < 0.6)) ** 2
        cells, thresholds = matched_os_cfar(power, cfg)
        np.testing.assert_array_equal(cells, np.flatnonzero(power))
        assert np.all(thresholds == 0.0)

    @pytest.mark.parametrize("level", [0.0, 1.0, 3.5])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_constant_frames(self, level, alpha):
        cfg = CfarConfig(window=4, guard=1, os_rank=5, pfa=0.5, alpha=alpha)
        power = np.full(40, level)
        cells, _ = matched_os_cfar(power, cfg)
        # Every reference equals the cell, so only alpha < 1 lifts it above.
        assert cells.size == (40 if level > 0.0 and alpha < 1.0 else 0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_quantised_powers_with_ties(self, alpha):
        rng = np.random.default_rng(7)
        power = rng.integers(0, 4, 200).astype(float)
        for rank in range(1, 11):
            cfg = CfarConfig(window=5, guard=2, os_rank=rank, pfa=0.5, alpha=alpha)
            matched_os_cfar(power, cfg)

    def test_detections_at_both_ends_of_the_wrap(self):
        cfg = CfarConfig(window=4, guard=1, os_rank=6, pfa=1e-3)
        power = np.ones(64)
        power[[0, 63]] = 1e4
        power[[2, 61]] = 5.0  # reference cells of 0 and 63 across the wrap
        cells, _ = matched_os_cfar(power, cfg)
        assert cells.tolist() == [0, 63]

    @settings(max_examples=25, deadline=None)
    @given(
        window=st.integers(1, 6),
        guard=st.integers(0, 3),
        rank_frac=st.floats(0.0, 1.0),
        extra=st.integers(0, 40),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        levels=st.sampled_from([0, 3, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_gather_oracle(self, window, guard, rank_frac, extra, alpha, levels, seed):
        rank = 1 + min(2 * window - 1, int(rank_frac * 2 * window))
        cfg = CfarConfig(window=window, guard=guard, os_rank=rank, pfa=0.5, alpha=alpha)
        n = 2 * (window + guard) + 1 + extra
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if levels:  # quantised magnitudes: many exact ties
            z = np.round(np.abs(z) * levels / 3.0) * np.exp(1j * np.angle(z))
        power = np.abs(z) ** 2
        matched_os_cfar(power, cfg)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        window=st.integers(1, 16),
        guard=st.integers(0, 3),
        extra=st.sampled_from([0, 1, 2, 7, 64, 300]),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
        levels=st.sampled_from([0, 1, 4]),
        targets=st.sampled_from([0.0, 0.02, 0.3]),
        specials=st.sampled_from([0.0, 0.01, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_rank_and_both_count_stages_match_gather_oracle(
        self, window, guard, extra, alpha, levels, targets, specials, seed
    ):
        # Every rank, so both sides of the two-stage split (an alpha large
        # enough for an expected stage-two share of at most 5 %) run: Exp(1)
        # noise, quantised for ties, with strong targets and with NaN and
        # inf cells.
        reach = window + guard
        n = 2 * reach + 1 + extra
        rng = np.random.default_rng(seed)
        power = rng.standard_exponential(n)
        if levels:
            power = np.round(power * levels) / levels
        power[rng.random(n) < targets] *= 1e4
        special = rng.random(n) < specials
        power[special] = rng.choice([np.nan, np.inf], special.sum())
        for rank in range(1, 2 * window + 1):
            cfg = CfarConfig(window=window, guard=guard, os_rank=rank, pfa=0.5, alpha=alpha)
            with np.errstate(invalid="ignore"):  # 0 * inf when alpha is 0
                matched_os_cfar(power, cfg)

    # (window, os_rank) pairs on both sides of the share bound: (4, 7) at
    # pfa 1e-2 would send 7.1 % of noise cells to stage two and counts in one
    # pass; (12, 18) at 1e-4, the shipped detector, sends 1.5 % and keeps
    # two stages, as does (12, 17), below 3/4 of the references, at 2.6 %.
    @pytest.mark.parametrize("pfa", [1e-2, 1e-4])
    @pytest.mark.parametrize("window, rank", [(4, 7), (8, 12), (12, 17), (12, 18)])
    def test_split_matches_sort_based_threshold_on_noise(self, window, rank, pfa):
        cfg = CfarConfig(window=window, guard=2, os_rank=rank, pfa=pfa)
        power = np.random.default_rng(window + rank).standard_exponential(16_384)
        power[::500] *= 1e3  # targets, so that every frame detects
        cells, _ = matched_os_cfar(power, cfg)
        assert cells.size > 0

    def test_split_bounds_the_expected_stage_two_share(self):
        one_pass = CfarConfig(window=4, guard=2, os_rank=7, pfa=1e-2)
        two_stages = CfarConfig(window=12, guard=2, os_rank=18, pfa=1e-4)
        assert _stage_two_share(one_pass) == pytest.approx(0.0710, abs=1e-4)
        assert _stage_two_share(one_pass) > _STAGE_TWO_SHARE
        assert _stage_two_share(two_stages) == pytest.approx(0.0152, abs=1e-4)
        assert _stage_two_share(two_stages) <= _STAGE_TWO_SHARE
        low_rank = CfarConfig(window=12, guard=2, os_rank=17, pfa=1e-4)
        assert _stage_two_share(low_rank) == pytest.approx(0.0260, abs=1e-4)
        assert _stage_two_share(low_rank) <= _STAGE_TWO_SHARE
        # At os_rank <= window every noise cell would reach stage two.
        assert _stage_two_share(CfarConfig(window=12, guard=2, os_rank=12)) == 1.0

    @pytest.mark.parametrize(
        "window, rank, pfa", [(4, 7, 1e-2), (12, 18, 1e-4), (8, 12, 1e-2), (2, 3, 1e-3)]
    )
    def test_stage_two_share_is_the_share_of_noise_cells(self, window, rank, pfa):
        # Cells of Exp(1) noise with at least os_rank - window of the window
        # references before them below power / alpha, against the formula:
        # within 5 binomial sigma over 2^18 cells.
        cfg = CfarConfig(window=window, guard=2, os_rank=rank, pfa=pfa)
        n = 1 << 18
        power = np.random.default_rng(rank).standard_exponential(n)
        offsets = range(cfg.guard + 1, window + cfg.guard + 1)
        hits = sum((cfg.alpha * np.roll(power, off) < power).astype(int) for off in offsets)
        share = np.count_nonzero(hits >= rank - window) / n
        want = _stage_two_share(cfg)
        assert abs(share - want) < 5 * math.sqrt(want * (1 - want) / n)

    @pytest.mark.parametrize("shape", [(4, 64), (64, 1), ()])
    def test_non_1d_profile_raises_naming_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            os_cfar(np.ones(shape), CfarConfig(window=4, guard=1, os_rank=5))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_complex_profile_raises_naming_its_dtype(self, dtype):
        # The detector takes power; a complex profile must be squared first.
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            os_cfar(np.ones(64, dtype=dtype), CfarConfig(window=4, guard=1, os_rank=5))

    def test_cluster_detections_keeps_strongest(self):
        power = np.array([1.0] * 30 + [50.0, 80.0, 60.0] + [1.0] * 31)
        cells, _ = os_cfar(power, CfarConfig(window=8, guard=2, os_rank=12, pfa=1e-3))
        assert cluster_detections(cells, power, 64) == [31]

    def test_cluster_detections_merge_across_the_wrap(self):
        power = np.zeros(1024)
        power[[0, 1, 1023]] = [5.0, 3.0, 9.0]
        assert cluster_detections(np.array([0, 1, 1023]), power, 1024) == [1023]

    def test_cluster_detections_keep_distant_ends_apart(self):
        power = np.zeros(1024)
        power[[1, 512, 1022]] = [3.0, 2.0, 2.0]
        assert cluster_detections(np.array([1, 512, 1022]), power, 1024) == [1, 512, 1022]


def dense_refined_delay(profile, peak_cell, sample_period):
    """Oracle: the band-limited grid built as one dense (2r+1, N) exponential."""
    refine = 64
    z = np.asarray(profile, dtype=complex)
    n = z.size
    grid = peak_cell + np.linspace(-1.0, 1.0, 2 * refine + 1)
    phases = np.exp(2j * np.pi * np.outer(grid, np.fft.fftfreq(n)))
    vals = np.abs(phases @ np.fft.fft(z) / n)
    j = min(max(int(np.argmax(vals)), 1), vals.size - 2)
    denom = vals[j - 1] - 2.0 * vals[j] + vals[j + 1]
    offset = 0.0
    if denom != 0.0:
        offset = np.clip(0.5 * (vals[j - 1] - vals[j + 1]) / denom, -0.5, 0.5)
    return (grid[j] + offset / refine) * sample_period


class TestDelayEstimation:
    def test_symmetric_neighbors_give_zero_offset(self):
        profile = np.zeros(32, dtype=complex)
        profile[9:12] = [0.5, 1.0, 0.5]
        got = estimate_delay(np.fft.fft(profile), 10) * 1e-8
        assert got == pytest.approx(10e-8, abs=1e-18)

    @settings(max_examples=50, deadline=None)
    @given(
        offset=st.floats(min_value=-0.49, max_value=0.49),
        curvature=st.floats(min_value=0.1, max_value=5.0),
        headroom=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_exact_on_true_quadratic_triples(self, offset, curvature, headroom):
        # The vertex rule that delay refinement and MUSIC share.
        cells = np.arange(-1, 2)
        # keep all three samples non-negative: they stand in for magnitudes
        peak = 2.3 * curvature + headroom
        triple = peak - curvature * (cells - offset) ** 2
        assert _parabolic_offset(*triple) == pytest.approx(offset, abs=1e-9)

    def test_integer_delay_is_exact(self):
        x = encode(np.random.default_rng(1).integers(0, 2, 31), ModulationParams(31))
        frame = fractional_delay(x, 12.0, 128)
        spec = cross_spectrum(x, frame)
        peak = int(np.argmax(np.abs(np.fft.ifft(spec))))
        assert estimate_delay(spec, peak) * 1e-8 == pytest.approx(12e-8, abs=1e-15)

    def test_fractional_delay_with_refinement(self):
        x = encode(np.random.default_rng(2).integers(0, 2, 127), ModulationParams(127))
        frame = fractional_delay(x, 40.25, 256)
        spec = cross_spectrum(x, frame)
        peak = int(np.argmax(np.abs(np.fft.ifft(spec))))
        got = estimate_delay(spec, peak) * 1e-8
        assert got == pytest.approx(40.25e-8, abs=0.05e-8)

    def test_degenerate_curvature_returns_peak_cell(self):
        # A flat triple has no vertex; the offset from the centre is zero.
        assert _parabolic_offset(1.0, 1.0, 1.0) == 0.0

    # n is the frame length; the seed offset picks the delays and the noise.
    @pytest.mark.parametrize("n, seed", [(16, 2), (64, 1), (100, 8), (1024, 64)])
    def test_cached_kernel_matches_dense_oracle(self, n, seed):
        rng = np.random.default_rng(n + seed)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        shifts = [0.2, n - 1 + 0.1, n - 0.2] + list(rng.uniform(0, n, 8))
        peaks = []
        for shift in shifts:
            rx = fractional_delay(x, shift, n)
            rx = rx + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            spec = cross_spectrum(x, rx)
            profile = np.fft.ifft(spec)
            peak = int(np.argmax(np.abs(profile)))
            peaks.append(peak)
            got = estimate_delay(spec, peak)
            want = dense_refined_delay(profile, peak, 1.0)
            assert abs(got - want) <= 1e-12
        assert {0, n - 1} <= set(peaks)

    def test_non_1d_spectrum_raises_naming_its_shape(self):
        block = np.ones((6, 64), dtype=complex)
        with pytest.raises(ValueError, match=re.escape("got (6, 64)")):
            estimate_delay(block, 10)
        with pytest.raises(ValueError, match=re.escape("got (2,)")):
            estimate_delay(np.ones(2), 0)

    def test_refinement_kernel_is_read_only(self):
        kernel = _refine_kernel(32)
        assert kernel.shape == (129, 32)
        assert not kernel.flags.writeable

    def test_correlation_value_at_matches_cells(self):
        rng = np.random.default_rng(4)
        profile = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        for lag in (0, 5, 31):
            got = correlation_value_at(np.fft.fft(profile), lag)
            assert got == pytest.approx(profile[lag], abs=1e-9)

    def test_correlation_value_at_frame_block_matches_rows(self):
        rng = np.random.default_rng(14)
        block = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
        profiles = np.fft.ifft(block, axis=-1)
        at_lag = correlation_value_at(block, 17.4)
        at_lags = correlation_value_at(block, [3.0, 17.4, 63.2])
        assert at_lag.shape == (6,)
        assert at_lags.shape == (6, 3)
        for j in range(6):
            one = correlation_value_at(block[j], 17.4)
            assert isinstance(one, complex)
            assert abs(at_lag[j] - one) <= 1e-12 * abs(one)
            row = correlation_value_at(block[j], [3.0, 17.4, 63.2])
            assert np.max(np.abs(at_lags[j] - row)) <= 1e-12 * np.max(np.abs(row))
            assert at_lags[j, 0] == pytest.approx(profiles[j, 3], abs=1e-9)

    def test_zero_d_lag_is_a_scalar_lag(self):
        rng = np.random.default_rng(15)
        block = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
        one = correlation_value_at(block[2], np.array(5.5))
        assert isinstance(one, complex)
        assert one == correlation_value_at(block[2], 5.5)
        rows = correlation_value_at(block, np.array(5.5))
        assert rows.shape == (6,)
        assert np.array_equal(rows, correlation_value_at(block, 5.5))

    @pytest.mark.parametrize("n", [7, 64, 1024])
    def test_shift_exponentials_equal_the_explicit_forms_bitwise(self, n):
        # Both read channel's delay ramp at the negated shift; the values
        # must be exactly those of exp(+2i pi f s) written out.
        freqs = np.fft.fftfreq(n)
        offsets = np.arange(129) / 64
        kernel = np.exp(2j * np.pi * np.outer(offsets, freqs))
        assert _refine_kernel(n).tobytes() == kernel.tobytes()
        rng = np.random.default_rng(n)
        block = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        lags = np.concatenate([rng.uniform(-n, 2 * n, 6), [0.0, 1.0, n - 1.0, -3.0]])
        want = block @ np.exp(2j * np.pi * np.outer(freqs, lags)) / n
        assert correlation_value_at(block, lags).tobytes() == want.tobytes()


class TestDopplerEstimation:
    def test_constant_phases_give_zero(self):
        times = np.arange(8) * 1e-3
        assert estimate_doppler(np.full(8, 0.7), times) == pytest.approx(0.0, abs=1e-12)

    def test_exact_linear_phase(self):
        times = np.arange(16) * 1e-3
        phases = 2 * np.pi * 100.0 * times + 0.3
        assert estimate_doppler(phases, times) == pytest.approx(100.0, abs=1e-6)

    def test_wraps_are_unwrapped(self):
        times = np.arange(16) * 1e-3
        phases = np.angle(np.exp(1j * 2 * np.pi * 230.0 * times))
        assert estimate_doppler(phases, times) == pytest.approx(230.0, abs=1e-6)

    def test_full_cycle_per_frame_aliases_to_zero(self):
        times = np.arange(16) * 1e-3
        phases = np.angle(np.exp(1j * 2 * np.pi * 1000.0 * times))
        assert estimate_doppler(phases, times) == pytest.approx(0.0, abs=1e-9)

    def test_too_few_frames_raise(self):
        with pytest.raises(ValueError):
            estimate_doppler([0.1], [0.0])


class TestCovariance:
    def test_constant_snapshot_is_rank_one(self):
        v = np.array([1.0, 1j, -0.5])
        cov = sample_covariance(np.tile(v[:, None], (1, 10)))
        np.testing.assert_allclose(cov, np.outer(v, v.conj()), atol=1e-12)
        assert np.linalg.matrix_rank(cov, tol=1e-9) == 1

    def test_white_noise_converges_to_identity(self):
        rng = np.random.default_rng(8)
        n = 1_000_000
        y = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        cov = sample_covariance(y)  # per-sample variance 2
        assert np.max(np.abs(cov - 2 * np.eye(4))) < 0.01 * 2

    def test_frame_stack_pools_every_snapshot(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((5, 3, 40)) + 1j * rng.standard_normal((5, 3, 40))
        want = sum(sample_covariance(frame) for frame in y) / 5
        np.testing.assert_allclose(sample_covariance(y), want, rtol=1e-13, atol=1e-14)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
        cov = sample_covariance(y)
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


def uncached_music_angles(cov, rx_matrix, num_sources, segment):
    """``music_angles`` as it was before its scan was cached: the grid, the
    beam manifold and its energy formed on every call."""
    cov = np.asarray(cov, dtype=complex)
    n_rf = cov.shape[0]
    if num_sources == 0:
        return np.empty(0, dtype=float)
    _, vecs = np.linalg.eigh(cov)
    noise_basis = vecs[:, : n_rf - num_sources]
    lo, hi = segment
    step = math.radians(0.5)
    grid = np.arange(lo, hi + step / 2, step)
    grid = np.clip(grid, -np.pi / 2, np.pi / 2)
    num_antennas = rx_matrix.shape[0]
    manifold = np.exp(1j * np.pi * np.outer(np.arange(num_antennas), np.sin(grid)))
    beam_manifold = rx_matrix.conj().T @ manifold
    proj = np.abs(noise_basis.conj().T @ beam_manifold) ** 2
    manifold_energy = (np.abs(beam_manifold) ** 2).sum(axis=0)
    pseudo = manifold_energy / np.maximum(proj.sum(axis=0), 1e-30)
    log_p = np.log(pseudo)
    interior = np.arange(1, grid.size - 1)
    is_peak = (log_p[interior] > log_p[interior - 1]) & (log_p[interior] >= log_p[interior + 1])
    peak_idx = interior[is_peak]
    ranked = peak_idx[np.argsort(log_p[peak_idx])[::-1]]
    chosen: list[int] = []
    for idx in ranked:
        if all(abs(idx - c) >= 2 for c in chosen):
            chosen.append(int(idx))
        if len(chosen) == num_sources:
            break
    estimates = []
    for idx in chosen:
        offset = _parabolic_offset(log_p[idx - 1], log_p[idx], log_p[idx + 1])
        estimates.append(grid[idx] + offset * step)
    return np.asarray(estimates, dtype=float)


class TestMusic:
    def setup_method(self):
        self.cfg = ArrayConfig(64, 4)
        self.segment = (-np.radians(8.0), np.radians(8.0))
        self.bf = make_beamformers(self.segment, self.cfg)

    def _covariance(self, angles_rad, snr=100.0, snapshots=4096, seed=0):
        rng = np.random.default_rng(seed)
        y = np.zeros((4, snapshots), dtype=complex)
        for ang in angles_rad:
            b = self.bf.rx_matrix.conj().T @ steering(ang, 64)
            power = snr * 4 / np.linalg.norm(b) ** 2  # per-chain SNR vs unit noise
            s = np.sqrt(power / 2) * (
                rng.standard_normal(snapshots) + 1j * rng.standard_normal(snapshots)
            )
            y += np.outer(b, s)
        y += (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)) / np.sqrt(2)
        return sample_covariance(y)

    def test_single_noiseless_on_grid_target(self):
        angle = np.radians(2.0)
        b = self.bf.rx_matrix.conj().T @ steering(angle, 64)
        cov = np.outer(b, b.conj())
        got = music_angles(cov, self.bf.rx_matrix, 1, self.segment)
        assert np.degrees(got[0]) == pytest.approx(2.0, abs=0.1)

    def test_single_noisy_target(self):
        cov = self._covariance([np.radians(1.3)], snr=100.0)
        got = music_angles(cov, self.bf.rx_matrix, 1, self.segment)
        assert np.degrees(got[0]) == pytest.approx(1.3, abs=0.5)

    def test_two_targets_ten_degrees_apart(self):
        # spread beams chosen by hand to cover both targets
        _, book = dft_codebook(64)
        rx = book[:, [32 - 3, 32 - 1, 32 + 1, 32 + 3]]
        angles = [np.radians(-4.8), np.radians(5.2)]
        rng = np.random.default_rng(5)
        y = np.zeros((4, 8192), dtype=complex)
        for ang in angles:
            b = rx.conj().T @ steering(ang, 64)
            power = 100.0 * 4 / np.linalg.norm(b) ** 2
            s = np.sqrt(power / 2) * (
                rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
            )
            y += np.outer(b, s)
        y += (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)) / np.sqrt(2)
        got = np.sort(music_angles(sample_covariance(y), rx, 2, (-np.radians(9), np.radians(9))))
        assert np.degrees(got[0]) == pytest.approx(-4.8, abs=1.0)
        assert np.degrees(got[1]) == pytest.approx(5.2, abs=1.0)

    def test_zero_sources_gives_empty(self):
        cov = np.eye(4, dtype=complex)
        assert music_angles(cov, self.bf.rx_matrix, 0, self.segment).size == 0

    def test_too_many_sources_raise(self):
        with pytest.raises(ValueError):
            music_angles(np.eye(4, dtype=complex), self.bf.rx_matrix, 4, self.segment)

    @pytest.mark.parametrize("seed, segment_deg", [(1, (-8.0, 8.0)), (2, (-30.0, -12.5))])
    @pytest.mark.parametrize("num_sources", [1, 2, 3])
    def test_cached_scan_returns_the_uncached_scan_bitwise(self, seed, segment_deg, num_sources):
        segment = tuple(np.radians(segment_deg))
        rx = make_beamformers(segment, self.cfg).rx_matrix
        rng = np.random.default_rng([seed, num_sources])
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            cov = a @ a.conj().T
            want = uncached_music_angles(cov, rx, num_sources, segment)
            for _ in range(2):  # the first call may fill the cache, the second reads it
                got = music_angles(cov, rx, num_sources, segment)
                assert got.tobytes() == want.tobytes()

    def test_scale_invariance_of_argmax(self):
        cov = self._covariance([np.radians(-2.6)], snr=50.0, seed=3)
        a1 = music_angles(cov, self.bf.rx_matrix, 1, self.segment)
        a2 = music_angles(5.0 * cov, self.bf.rx_matrix, 1, self.segment)
        np.testing.assert_allclose(a1, a2, atol=1e-12)


class TestAmbiguityFunction:
    def test_unit_energy_origin(self):
        x = encode(np.random.default_rng(0).integers(0, 2, 31), ModulationParams(31))
        surf = ambiguity_function(x, 8, 16)
        lag0 = np.where(surf.lags == 0)[0][0]
        dop0 = np.where(surf.doppler_cycles == 0)[0][0]
        assert surf.values[lag0, dop0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_doppler_cut_equals_autocorrelation(self):
        p = ModulationParams(31)
        x = encode(np.random.default_rng(1).integers(0, 2, 31), p)
        surf = ambiguity_function(x, 31, 32)
        dop0 = np.where(surf.doppler_cycles == 0)[0][0]
        a = np.abs(autocorrelation(x))
        np.testing.assert_allclose(surf.values[:, dop0], a, atol=1e-9)

    def test_symmetry_under_joint_negation(self):
        x = encode(np.random.default_rng(2).integers(0, 2, 15), ModulationParams(15))
        surf = ambiguity_function(x, 10, 16)
        dop0 = np.where(surf.doppler_cycles == 0)[0][0]
        for li in range(surf.lags.size):
            for pi in range(surf.doppler_cycles.size):
                lj = np.where(surf.lags == -surf.lags[li])[0]
                pj = np.where(surf.doppler_cycles == -surf.doppler_cycles[pi])[0]
                if lj.size and pj.size:
                    assert surf.values[li, pi] == pytest.approx(
                        surf.values[lj[0], pj[0]], abs=1e-9
                    )
        assert dop0 == surf.doppler_cycles.size // 2

    def test_max_lag_bounds(self):
        with pytest.raises(ValueError):
            ambiguity_function(np.ones(8, dtype=complex), 8, 16)


# Every lru_cache'd table, called with small arguments.  Each call returns
# the same shared arrays, so a write through one caller would corrupt every
# later trial that reads them.
_RX = np.eye(8, 4, dtype=complex)
CACHED_TABLES = {
    "_log_basis": lambda: _log_basis(ModulationParams(15)),
    "_refine_kernel": lambda: _refine_kernel(32),
    "_music_scan": lambda: _music_scan(_RX.tobytes(), _RX.shape, (-0.5, 0.5)),
    "_target_ramps": lambda: _target_ramps(64, 3.25, 1e3, 1e-8),
    "_gram_side": lambda: _gram_side(64, 16, 3.25, 0.01),
    "_circulant_index": lambda: _circulant_index(64, 16),
}


@pytest.mark.parametrize("name", sorted(CACHED_TABLES))
def test_cached_table_is_shared_and_rejects_a_write(name):
    got = CACHED_TABLES[name]()
    assert CACHED_TABLES[name]() is got
    arrays = [a for a in (got if isinstance(got, tuple) else (got,)) if isinstance(a, np.ndarray)]
    assert arrays
    for a in arrays:
        before = a.copy()
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
        assert a.tobytes() == before.tobytes()
