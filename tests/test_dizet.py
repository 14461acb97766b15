"""Decoder behavior: exactness without noise, invariances, and the fast path."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moczsim import (
    ModulationParams,
    awgn,
    dizet_decode,
    dizet_decode_batch,
    encode,
    encode_batch,
    eval_on_zero_grid,
)

from horner import decode_margins, eval_at_point, eval_on_grid


class TestEvalAtPoint:
    def test_origin_gives_first_sample(self):
        y = np.array([3.0 + 1j, 2.0, 5.0])
        assert eval_at_point(y, 0.0) == pytest.approx(3.0 + 1j)

    def test_unity_gives_sum(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert eval_at_point(y, 1.0) == pytest.approx(10.0)

    def test_designed_zero_is_a_root(self):
        x = encode([1, 0], ModulationParams(2))
        assert abs(eval_at_point(x, -1 / np.sqrt(2.0))) < 1e-12

    def test_vectorized_points(self):
        y = np.array([1.0, -2.0, 1.0])  # (1 - z)^2
        vals = eval_at_point(y, np.array([1.0, 2.0, 0.5j]))
        np.testing.assert_allclose(vals[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(vals[1], 1.0, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            eval_at_point([], 1.0)


class TestGridEvaluation:
    def test_fft_path_matches_horner(self):
        rng = np.random.default_rng(11)
        p = ModulationParams(31)
        for n in (20, 32, 45, 77):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for radius in (p.outer_radius, 1 / p.outer_radius):
                h = eval_on_grid(y, radius, 31)
                f = eval_on_zero_grid(y, radius, 31)
                np.testing.assert_allclose(f, h, atol=1e-9 * np.max(np.abs(h)))

    @pytest.mark.parametrize("n", [128, 131, 300])
    def test_slice_fold_equals_zero_padded_fold_exactly(self, n):
        # Oracle: zero-pad to whole blocks of K, scale block q by R^(qK), sum
        # the reshaped blocks, scale column j by R^j, then take the unscaled
        # inverse transform.
        k = 127
        rng = np.random.default_rng(n)
        y = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        radius = ModulationParams(k).outer_radius
        blocks = -(-n // k)
        weights = radius ** np.arange(blocks * k)
        padded = np.zeros((4, blocks * k), dtype=complex)
        padded[:, :n] = y
        scaled = padded.reshape(4, blocks, k) * weights[::k, None]
        folded = scaled.sum(axis=1) * weights[:k]
        want = np.fft.ifft(folded, axis=-1, norm="forward")
        assert np.array_equal(eval_on_zero_grid(y, radius, k), want)


class TestDecode:
    def test_k2_example(self):
        p = ModulationParams(2)
        x = encode([1, 0], p)
        # outer test point of bit 1 and inner test point of bit 2 are exact roots
        assert abs(eval_at_point(x, p.outer_radius)) < 1e-12
        assert abs(eval_at_point(x, -1 / p.outer_radius)) < 1e-12
        bits, margins = dizet_decode(x, p)
        np.testing.assert_array_equal(bits, [1, 0])
        assert margins[0] > 0 > margins[1]

    @pytest.mark.parametrize("k", [2, 5, 8, 10])
    def test_exhaustive_identity_channel(self, k):
        p = ModulationParams(k)
        msgs = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int8)
        bits, _ = dizet_decode_batch(encode_batch(msgs, p), p)
        np.testing.assert_array_equal(bits, msgs)

    def test_random_multipath_noiseless(self):
        p = ModulationParams(31)
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = rng.integers(0, 2, 31)
            h = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
            y = np.convolve(h, encode(m, p))
            np.testing.assert_array_equal(dizet_decode(y, p)[0], m)

    def test_insufficient_length_raises(self):
        p = ModulationParams(8)
        with pytest.raises(ValueError):
            dizet_decode(np.ones(8, dtype=complex), p)
        with pytest.raises(ValueError):
            dizet_decode_batch(np.ones((2, 8), dtype=complex), p)

    def test_all_zero_input_decodes_to_zero_bits(self):
        # both normalized magnitudes tie at zero; ties resolve to bit 0
        p = ModulationParams(4)
        bits, margins = dizet_decode(np.zeros(5, dtype=complex), p)
        np.testing.assert_array_equal(bits, [0, 0, 0, 0])
        np.testing.assert_array_equal(margins, np.zeros(4))

    @pytest.mark.parametrize("k", [8, 31, 127, 511])
    def test_margins_match_horner_oracle(self, k):
        p = ModulationParams(k)
        rng = np.random.default_rng(k)
        for n in (k + 1, k + 4):
            x = np.zeros(n, dtype=complex)
            x[: k + 1] = encode(rng.integers(0, 2, k), p)
            y = awgn(x, 0.1 / k, rng)
            bits, margins = dizet_decode(y, p)
            want = decode_margins(y, p)
            np.testing.assert_array_equal(bits, (want > 0).astype(np.uint8))
            np.testing.assert_allclose(margins, want, rtol=0, atol=1e-9)

    def test_rejects_non_vector_input(self):
        with pytest.raises(ValueError):
            dizet_decode(np.ones((2, 9), dtype=complex), ModulationParams(8))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    phase=st.floats(min_value=0.0, max_value=2 * np.pi),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
)
def test_phase_and_scale_invariance(seed, phase, log_scale):
    p = ModulationParams(12)
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, 12)
    y = awgn(encode(m, p), 0.05, rng)
    base_bits, base_margins = dizet_decode(y, p)
    bits, margins = dizet_decode(np.exp(log_scale) * np.exp(1j * phase) * y, p)
    np.testing.assert_array_equal(bits, base_bits)
    np.testing.assert_allclose(margins, base_margins, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=2047),
    n_taps=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_noiseless_decode_is_exact_under_any_fir_channel(k, n_taps, seed):
    # A channel polynomial multiplies the transmit polynomial, so the
    # designed zeros survive any taps and every bit decodes exactly.
    p = ModulationParams(k)
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, (3, k), dtype=np.int8)
    taps = rng.standard_normal((3, n_taps)) + 1j * rng.standard_normal((3, n_taps))
    rx = np.array([np.convolve(h, x) for h, x in zip(taps, encode_batch(msgs, p))])
    bits, _ = dizet_decode_batch(rx, p)
    np.testing.assert_array_equal(bits, msgs)


def test_ber_degrades_monotonically_with_noise():
    """Lower SNR must not give a lower error rate (1 dB guard band, 1e5 packets)."""
    p = ModulationParams(31)
    rng = np.random.default_rng(123)
    packets = 100_000
    bers = []
    for snr_db in (4.0, 6.0):
        var = 10 ** (-snr_db / 10) / p.num_bits
        errors = 0
        for _ in range(4):
            msgs = rng.integers(0, 2, (packets // 4, 31), dtype=np.int8)
            rx = awgn(encode_batch(msgs, p), var, rng)
            bits, _ = dizet_decode_batch(rx, p)
            errors += int(np.count_nonzero(bits != msgs))
        bers.append(errors / (packets * 31))
    assert bers[0] >= bers[1]
    assert bers[1] > 0  # both points sit in the measurable regime
