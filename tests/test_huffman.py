"""Sequence construction: algebraic invariants and frozen example values."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moczsim import (
    ModulationParams,
    autocorrelation,
    derive_radius,
    derive_side_peak,
    encode,
    encode_batch,
    sequence_from_csv,
    sequence_to_csv,
)
from zero_pattern import encode_zeros, expected_end_energy


def expected_autocorr(params):
    out = np.zeros(2 * params.num_bits + 1, dtype=complex)
    out[params.num_bits] = 1.0
    out[0] = -params.side_peak
    out[-1] = -params.side_peak
    return out


def encode_by_convolution(bits, params):
    """Independent small-K oracle: expand the zero product term by term.

    Exact for K up to a few dozen; beyond that the partial products overflow
    double precision, which is why the library encoder works by evaluation.
    """
    zeros = encode_zeros(bits, params)
    coeffs = np.ones(1, dtype=complex)
    for root in zeros:
        coeffs = np.convolve(coeffs, np.array([-root, 1.0]))
    lead = -np.sqrt(
        params.side_peak
        * params.outer_radius ** (params.num_bits - 2 * int(np.sum(bits)))
    )
    x = lead * coeffs
    x *= np.exp(-1j * np.angle(x[0]))
    return x / np.linalg.norm(x)


class TestRadiusAndSidePeak:
    def test_radius_k2(self):
        assert derive_radius(2, 0.5) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_radius_frozen_values(self):
        assert derive_radius(4, 0.5) == pytest.approx(1.306563, abs=1e-6)
        assert derive_radius(511, 0.5) == pytest.approx(1.003070, abs=1e-6)

    def test_radius_rejects_bad_args(self):
        with pytest.raises(ValueError):
            derive_radius(0, 0.5)
        with pytest.raises(ValueError):
            derive_radius(4, 0.0)
        with pytest.raises(ValueError):
            derive_radius(4, -1.0)

    def test_side_peak_examples(self):
        assert derive_side_peak(np.sqrt(2.0), 2) == pytest.approx(0.4, abs=1e-12)
        assert derive_side_peak(1.003070, 511) == pytest.approx(0.2001, abs=2e-4)

    def test_side_peak_monotone_in_radius(self):
        radii = np.linspace(1.01, 5.0, 40)
        vals = [derive_side_peak(r, 6) for r in radii]
        assert np.all(np.diff(vals) < 0)
        assert all(0.0 < v < 0.5 for v in vals)

    def test_side_peak_rejects_unit_radius(self):
        with pytest.raises(ValueError):
            derive_side_peak(1.0, 8)
        with pytest.raises(ValueError):
            derive_side_peak(0.9, 8)


class TestModulationParams:
    def test_derived_fields_consistent(self):
        p = ModulationParams(num_bits=16, radius_tuning=0.5)
        assert p.outer_radius == pytest.approx(
            np.sqrt(1 + np.sin(np.pi / 16)), abs=1e-12
        )
        assert p.side_peak == pytest.approx(
            1 / (p.outer_radius**16 + p.outer_radius**-16), abs=1e-12
        )
        assert 0 < p.side_peak < 0.5
        assert p.seq_len == 17

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ModulationParams(num_bits=0)
        with pytest.raises(ValueError):
            ModulationParams(num_bits=8, radius_tuning=1.5)
        # K = 1 makes the radius rule collapse to R = 1: no usable geometry
        with pytest.raises(ValueError):
            ModulationParams(num_bits=1)


class TestEncodeZeros:
    def test_k2_example(self):
        p = ModulationParams(2)
        z = encode_zeros([1, 0], p)
        np.testing.assert_allclose(z[0], np.sqrt(2.0), atol=1e-12)
        np.testing.assert_allclose(z[1], -1 / np.sqrt(2.0), atol=1e-12)

    def test_all_zero_message_sits_on_inner_circle(self):
        p = ModulationParams(6)
        z = encode_zeros(np.zeros(6, dtype=int), p)
        np.testing.assert_allclose(np.abs(z), 1 / p.outer_radius, atol=1e-12)

    def test_angles_are_base_angle_multiples(self):
        p = ModulationParams(4)
        z = encode_zeros([1, 1, 0, 1], p)
        steps = np.diff(np.unwrap(np.angle(z)))
        np.testing.assert_allclose(steps, np.pi / 2, atol=1e-12)

    def test_radii_always_on_the_two_circles(self):
        p = ModulationParams(9)
        rng = np.random.default_rng(3)
        m = rng.integers(0, 2, 9)
        z = encode_zeros(m, p)
        want = np.where(m == 1, p.outer_radius, 1 / p.outer_radius)
        np.testing.assert_allclose(np.abs(z), want, atol=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            encode_zeros([1, 0, 1], ModulationParams(2))
        with pytest.raises(ValueError):
            encode_zeros([1, 2], ModulationParams(2))


class TestEncode:
    def test_k2_all_zeros_frozen(self):
        x = encode([0, 0], ModulationParams(2))
        np.testing.assert_allclose(x, [0.447214, 0.0, -0.894427], atol=1e-6)

    def test_k2_message_10_frozen(self):
        x = encode([1, 0], ModulationParams(2))
        np.testing.assert_allclose(x, [0.632456, 0.447214, -0.632456], atol=1e-6)

    @pytest.mark.parametrize("k", [2, 5, 31, 127, 511, 1023, 2047])
    def test_unit_energy_and_positive_first_sample(self, k):
        p = ModulationParams(k)
        rng = np.random.default_rng(k)
        x = encode(rng.integers(0, 2, k), p)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(1.0, abs=1e-9)
        assert x[0].real > 0
        assert abs(x[0].imag) < 1e-12

    def test_matches_convolution_oracle_small_k(self):
        for k in (2, 3, 5, 8, 10):
            p = ModulationParams(k)
            for bits in itertools.product((0, 1), repeat=k):
                got = encode(bits, p)
                want = encode_by_convolution(bits, p)
                np.testing.assert_allclose(got, want, atol=1e-11)

    def test_end_coefficients_closed_form(self):
        for k in (2, 6, 31, 127):
            p = ModulationParams(k)
            rng = np.random.default_rng(k + 1)
            m = rng.integers(0, 2, k)
            x = encode(m, p)
            r2k = p.outer_radius ** (2 * k)
            w = int(m.sum())
            x0 = np.sqrt(p.outer_radius ** (2 * w) / (1 + r2k))
            xk = -np.sqrt(p.outer_radius ** (2 * k - 2 * w) / (1 + r2k))
            assert abs(x[0] - x0) < 1e-9
            assert abs(x[-1] - xk) < 1e-9

    def test_polynomial_vanishes_at_chosen_zeros_only(self):
        from horner import eval_at_point

        for k in (4, 10, 31):
            p = ModulationParams(k)
            rng = np.random.default_rng(k)
            m = rng.integers(0, 2, k)
            x = encode(m, p)
            zeros = encode_zeros(m, p)
            partners = np.conj(1.0 / zeros)
            assert np.max(np.abs(eval_at_point(x, zeros))) < 1e-7 * k
            assert np.min(np.abs(eval_at_point(x, partners))) > p.side_peak / 2


class TestAutocorrelation:
    def test_k2_message_10(self):
        x = encode([1, 0], ModulationParams(2))
        np.testing.assert_allclose(
            autocorrelation(x), [-0.4, 0.0, 1.0, 0.0, -0.4], atol=1e-9
        )

    def test_identical_for_all_k2_messages(self):
        p = ModulationParams(2)
        acs = [autocorrelation(encode(bits, p)) for bits in itertools.product((0, 1), repeat=2)]
        for ac in acs[1:]:
            np.testing.assert_allclose(ac, acs[0], atol=1e-9)

    def test_impulse(self):
        np.testing.assert_allclose(autocorrelation([1.0]), [1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            autocorrelation([])

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        a = autocorrelation(x)
        np.testing.assert_allclose(a, np.conj(a[::-1]), atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_exhaustive_huffman_pattern(self, k):
        p = ModulationParams(k)
        want = expected_autocorr(p)
        for bits in itertools.product((0, 1), repeat=k):
            a = autocorrelation(encode(bits, p))
            assert np.max(np.abs(a - want)) < 1e-9

    @pytest.mark.parametrize("k", [7, 31, 127, 511])
    @pytest.mark.parametrize("size", ["L", "2K+1", "1024"])
    def test_every_codeword_has_one_power_spectrum(self, k, size):
        # The transform of the autocorrelation: |fft_N(x)|^2 =
        # 1 - 2 eta cos(2 pi K k / N) on any N >= L for every message, so
        # all frames of a CPI share one power spectrum and the radar's
        # kernels one Gram.  At N = L the lags +-K alias to -+1 modulo N.
        # The encoder's rounding grows with K: 16 messages at K = 511 read
        # 0.9e-12 to 1.02e-12 over 40 seeds, so the bound is 4e-15 L.
        p = ModulationParams(k)
        n = {"L": k + 1, "2K+1": 2 * k + 1, "1024": 1024}[size]
        msgs = np.random.default_rng(k + n).integers(0, 2, (16, k))
        power = np.abs(np.fft.fft(encode_batch(msgs, p), n, axis=1)) ** 2
        want = 1.0 - 2.0 * p.side_peak * np.cos(2.0 * np.pi * k * np.arange(n) / n)
        assert np.max(np.abs(power - want)) <= 4e-15 * (k + 1)

    @pytest.mark.parametrize("k", [11, 12])
    def test_sampled_huffman_pattern_above_exhaustive_reach(self, k):
        p = ModulationParams(k)
        want = expected_autocorr(p)
        rng = np.random.default_rng(k)
        for bits in rng.integers(0, 2, (200, k)):
            a = autocorrelation(encode(bits, p))
            assert np.max(np.abs(a - want)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_bit_flip_replaces_zero_by_reciprocal_and_keeps_autocorr(k, seed, data):
    p = ModulationParams(k)
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, k)
    flip = data.draw(st.integers(min_value=0, max_value=k - 1))
    m2 = m.copy()
    m2[flip] ^= 1
    z1 = encode_zeros(m, p)
    z2 = encode_zeros(m2, p)
    np.testing.assert_allclose(z2[flip], np.conj(1.0 / z1[flip]), atol=1e-12)
    others = np.arange(k) != flip
    np.testing.assert_allclose(z2[others], z1[others], atol=1e-12)
    a1 = autocorrelation(encode(m, p))
    a2 = autocorrelation(encode(m2, p))
    assert np.max(np.abs(a1 - a2)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=2047),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_codeword_has_the_huffman_autocorrelation(k, seed):
    p = ModulationParams(k)
    msgs = np.random.default_rng(seed).integers(0, 2, (2, k))
    want = expected_autocorr(p)
    for x in encode_batch(msgs, p):
        assert np.max(np.abs(autocorrelation(x) - want)) < 1e-12


class TestExpectedEndEnergy:
    def test_k2_closed_form(self):
        assert expected_end_energy(ModulationParams(2)) == pytest.approx(0.45, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 6, 10])
    def test_matches_exhaustive_mean(self, k):
        p = ModulationParams(k)
        mean = np.mean(
            [abs(encode(bits, p)[0]) ** 2 for bits in itertools.product((0, 1), repeat=k)]
        )
        assert expected_end_energy(p) == pytest.approx(mean, abs=1e-12)

    def test_large_k_does_not_overflow(self):
        val = expected_end_energy(ModulationParams(511))
        assert 0.0 < val < 1.0


class TestEncodeBatch:
    @pytest.mark.parametrize("k", [2, 7, 31, 127])
    def test_matches_single_encode(self, k):
        p = ModulationParams(k)
        rng = np.random.default_rng(k)
        msgs = rng.integers(0, 2, (8, k))
        batch = encode_batch(msgs, p)
        for row, bits in zip(batch, msgs):
            np.testing.assert_allclose(row, encode(bits, p), atol=1e-12)

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            encode_batch(np.zeros((3, 5), dtype=int), ModulationParams(4))

    @pytest.mark.parametrize("k", [2, 31, 127, 511])
    def test_cached_basis_matches_uncached_formula_exactly(self, k):
        # Oracle: the complex (K+1, K) log basis rebuilt inline and applied
        # by a complex product, with the leading coefficient (whose sign
        # makes the first sample positive), the 1/(K+1) scale and a norm
        # per row.  The library sums only the phases, in one real product
        # with the cached phase basis, and takes the magnitudes, the sign
        # and the unit energy from one cached row, so the sums round
        # differently: equal to 1e-13, not bit for bit (measured 6e-15 at
        # K=511).  Neither rotates a row: both keep the rounding of the
        # phase sums in the first sample's phase.
        p = ModulationParams(k)
        msgs = np.random.default_rng(k + 1).integers(0, 2, (16, k))
        grid = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
        pair = np.exp(2j * np.pi * np.arange(k) / k)
        log_outer = np.log(grid[:, None] - p.outer_radius * pair[None, :])
        log_inner = np.log(grid[:, None] - pair[None, :] / p.outer_radius)
        m = msgs.astype(np.float64)
        evals = np.exp(log_inner.sum(axis=1)[:, None] + (log_outer - log_inner) @ m.T)
        evals *= -np.sqrt(p.side_peak * p.outer_radius ** (k - 2.0 * m.sum(axis=1)))[None, :]
        x = (np.fft.fft(evals, axis=0) / (k + 1)).T
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        for _ in range(2):  # first call fills the cache, second reads it
            np.testing.assert_allclose(encode_batch(msgs, p), x, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("k", [5, 31, 127, 511])
    def test_set_bits_scale_every_unit_root_value_by_r(self, k):
        # |w - R a| = R |w - a/R| for |w| = 1: on the K+1 roots of unity the
        # zero polynomial of m has the all-zero message's magnitudes times
        # R^|m|.  Products of the zero factors, taken as sums of logs.
        p = ModulationParams(k)
        w = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))[:, None]

        def log_magnitudes(bits):
            return np.log(np.abs(w - encode_zeros(bits, p)[None, :])).sum(axis=1)

        base = log_magnitudes(np.zeros(k, dtype=int))
        for bits in np.random.default_rng(k).integers(0, 2, (4, k)):
            np.testing.assert_allclose(
                log_magnitudes(bits) - base, bits.sum() * np.log(p.outer_radius), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("k", [5, 31, 127, 511, 2047])
    def test_every_codeword_has_the_all_zero_message_spectrum(self, k):
        # So after the unit-energy scaling every codeword has one magnitude
        # spectrum on the K+1 roots of unity, the one the encoder caches.
        p = ModulationParams(k)
        msgs = np.random.default_rng(k).integers(0, 2, (8, k))
        spectra = np.abs(np.fft.fft(encode_batch(msgs, p), axis=1))
        flat = np.abs(np.fft.fft(encode_batch(np.zeros((1, k), dtype=int), p), axis=1))
        np.testing.assert_allclose(spectra, np.broadcast_to(flat, spectra.shape), rtol=1e-12, atol=0)

    def test_cached_basis_is_read_only(self):
        from moczsim.huffman import _log_basis

        for arr in _log_basis(ModulationParams(15)):
            assert not arr.flags.writeable


class TestCsv:
    def test_round_trip(self):
        x = encode([1, 0, 1], ModulationParams(3))
        back = sequence_from_csv(sequence_to_csv(x))
        np.testing.assert_allclose(back, x, atol=1e-11)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            sequence_from_csv("not,a,number\n")
        with pytest.raises(ValueError):
            sequence_from_csv("")


def test_block_of_cpis_encodes_as_each_cpi_alone():
    # The radar encodes a block of B CPIs of F frames as one (B*F, K) call;
    # every CPI's rows are bitwise its own (F, K) call.
    p = ModulationParams(127)
    msgs = np.random.default_rng(38).integers(0, 2, (16, 16, 127), dtype=np.int8)
    block = encode_batch(msgs.reshape(-1, 127), p).reshape(16, 16, 128)
    for cpi, rows in zip(msgs, block):
        assert rows.tobytes() == encode_batch(cpi, p).tobytes()
