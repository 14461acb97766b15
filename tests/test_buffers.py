"""The BER chain's caller-supplied buffers: each kernel's ``out=`` result is
bitwise the allocating result, and the call allocates less than a quarter of
the block it reads or writes.

The buffers are views of flat arrays, as ``run_ber`` carves them from its
per-task set.  The sizes are one whole block and a short block (100 rows),
the last block of a run whose trials are not a multiple of the block, and
512 and 1024 rows with short 500 and 1000, as a caller of the kernels may
pass: the bounds hold at any row count.
"""

import math
import tracemalloc

import numpy as np
import pytest

from moczsim import ModulationParams, awgn, dizet_decode_batch, encode_batch, eval_on_zero_grid
from moczsim.channel import _DRAW_CHUNK
from moczsim.simulate import _BER_BLOCK, _decide_from_grids, _fade_batch, _rows


def peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same(a, b) -> bool:
    """Bitwise equality, with the dtypes and shapes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SIZES = [_BER_BLOCK, 100, 512, 500, 1024, 1000]


def flat_buffer(k: int, dtype=complex) -> np.ndarray:
    return np.full(max(SIZES) * (k + 7), np.nan, dtype=dtype)


def messages(size: int, k: int) -> np.ndarray:
    return np.random.default_rng(size + k).integers(0, 2, (size, k), dtype=np.int8)


def faded_rows(size: int, k: int, model: str) -> np.ndarray:
    p = ModulationParams(k)
    tx = encode_batch(messages(size, k), p)
    return awgn(_fade_batch(tx, model, np.random.default_rng(3)), 0.5 / k, np.random.default_rng(4))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("k", [127, 511])
def test_encode_into_out_is_the_allocating_encode(k, size):
    p = ModulationParams(k)
    msgs = messages(size, k)
    want = encode_batch(msgs, p)
    real = msgs.astype(np.float64)
    out = _rows(flat_buffer(k), size, p.seq_len)
    assert encode_batch(real, p, out=out) is out
    assert same(out, want)
    # The float messages are read in place.
    assert peak_bytes(lambda: encode_batch(real, p, out=out)) < out.nbytes / 4


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "k, model", [(127, "rayleigh_flat"), (127, "rician_selective"), (511, "rician_selective")]
)
def test_fade_into_out_is_the_allocating_fade(k, model, size):
    p = ModulationParams(k)
    tx = encode_batch(messages(size, k), p)
    want_rng = np.random.default_rng(5)
    want = _fade_batch(tx, model, want_rng)
    # As in run_ber, the faded rows replace tx in the same buffer.
    signal = flat_buffer(k)
    tx_view = _rows(signal, size, p.seq_len)
    tx_view[...] = tx
    out = _rows(signal, size, want.shape[1])
    scratch = _rows(flat_buffer(k), size, p.seq_len + 6)
    rng = np.random.default_rng(5)
    assert _fade_batch(tx_view, model, rng, out=out, scratch=scratch) is out
    assert same(out, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
    tx_view[...] = tx
    peak = peak_bytes(
        lambda: _fade_batch(tx_view, model, np.random.default_rng(5), out=out, scratch=scratch)
    )
    assert peak < out.nbytes / 4


def test_awgn_model_fade_returns_its_input():
    tx = encode_batch(messages(4, 31), ModulationParams(31))
    assert _fade_batch(tx, "awgn", np.random.default_rng(0), out=np.empty_like(tx)) is tx


def reference_awgn(x, noise_variance, rng):
    """One draw of the whole (2, ...) noise stack: the stream awgn must keep."""
    re, im = rng.standard_normal((2,) + x.shape) * math.sqrt(noise_variance / 2.0)
    out = np.empty(x.shape, dtype=complex)
    np.add(x.real, re, out=out.real)
    np.add(x.imag, im, out=out.imag)
    return out


class TestAwgnOut:
    @pytest.mark.parametrize("size", SIZES)
    def test_in_place_block_is_the_one_draw_stream(self, size):
        # A (size, 132) block is 2 * size * 132 draws: many chunks, the last
        # one partial.
        x = faded_rows(size, 127, "rician_selective")
        assert (2 * x.size) % _DRAW_CHUNK
        want_rng = np.random.default_rng(6)
        want = reference_awgn(x, 0.01, want_rng)
        rng = np.random.default_rng(6)
        assert awgn(x, 0.01, rng, out=x) is x
        assert same(x, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_zero_variance_copies_into_out_without_a_draw(self):
        x = faded_rows(8, 31, "awgn")
        out = np.empty_like(x)
        rng = np.random.default_rng(8)
        assert awgn(x, 0.0, rng, out=out) is out
        assert same(out, x)
        assert rng.bit_generator.state == np.random.default_rng(8).bit_generator.state

    def test_draw_is_bounded_by_the_chunk(self):
        x = faded_rows(_BER_BLOCK, 127, "awgn")
        peak = peak_bytes(lambda: awgn(x, 0.01, np.random.default_rng(9), out=x))
        assert peak < 2 * _DRAW_CHUNK * 8

    def test_non_contiguous_out_is_rejected(self):
        x = np.zeros((4, 6), dtype=complex)
        with pytest.raises(ValueError, match="C-contiguous"):
            awgn(x[:, :3], 1.0, np.random.default_rng(0), out=x[:, 3:])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("k, model", [(127, "awgn"), (511, "rician_selective")])
def test_decode_into_out_is_the_allocating_decode(k, model, size):
    # run_ber's decode: the packets and the noise on both zero grids, then the
    # decision into its magnitude buffers.  At noise scale 0 the mixed values
    # are the packets' own, so the result is the allocating decode's.
    p = ModulationParams(k)
    rx = faded_rows(size, k, model)
    noise = np.random.default_rng(7).standard_normal(rx.shape) + 0j
    want_bits, want_margins = dizet_decode_batch(rx, p)
    grids = [_rows(flat_buffer(k), size, k) for _ in range(4)]
    radii = [p.outer_radius, 1.0 / p.outer_radius] * 2
    for x, radius, grid in zip([rx, rx, noise, noise], radii, grids):
        assert eval_on_zero_grid(x, radius, k, out=grid) is grid
        assert peak_bytes(lambda: eval_on_zero_grid(x, radius, k, out=grid)) < rx.nbytes / 4
    mix = _rows(flat_buffer(k), size, k)
    mags = [_rows(flat_buffer(k, dtype=float), size, k) for _ in range(2)]
    bits, margins = _decide_from_grids(grids, 0.0, p.outer_radius, rx.shape[1], mix, mags)
    assert margins is mags[0]
    assert same(margins, want_margins)
    assert same(bits, want_bits)
    peak = peak_bytes(
        lambda: _decide_from_grids(grids, 0.0, p.outer_radius, rx.shape[1], mix, mags)
    )
    assert peak < rx.nbytes / 4


@pytest.mark.parametrize("n", [20, 31, 32, 75, 93])
def test_grid_into_out_is_the_allocating_grid(n):
    # Shorter than K (zero-extended), exactly K, one sample over, and several folds.
    y = np.random.default_rng(n).standard_normal((3, n)) + 0j
    out = np.full((3, 31), np.nan, dtype=complex)
    assert eval_on_zero_grid(y, 1.1, 31, out=out) is out
    assert same(out, eval_on_zero_grid(y, 1.1, 31))
