"""The BER chain's caller-supplied buffers: each kernel's ``out=`` result is
bitwise the allocating result, and the call allocates less than a quarter of
the block it reads or writes.

The buffers are views of flat arrays, as ``run_ber`` carves them from its
per-task set.  The sizes are one whole block and a short block (100 rows),
the last block of a run whose trials are not a multiple of the block, and
512 and 1024 rows with short 500 and 1000, as a caller of the kernels may
pass: the bounds hold at any row count.
"""

import tracemalloc

import numpy as np
import pytest

from moczsim import ModulationParams, awgn, dizet_decode_batch, encode_batch, eval_on_zero_grid
from moczsim.simulate import _BER_BLOCK, _decide_from_grids, _fade_batch, _rows
from fade_oracle import fade_samples


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
    return np.full(max(SIZES) * (k + 1), np.nan, dtype=dtype)


def messages(size: int, k: int) -> np.ndarray:
    return np.random.default_rng(size + k).integers(0, 2, (size, k), dtype=np.int8)


def faded_rows(size: int, k: int, model: str) -> np.ndarray:
    p = ModulationParams(k)
    tx = encode_batch(messages(size, k), p)
    return awgn(fade_samples(tx, model, np.random.default_rng(3)), 0.5 / k, np.random.default_rng(4))


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
    # As in run_ber, the fade multiplies the clean packets' two grids in
    # place, through the spare buffer's complex rows.
    p = ModulationParams(k)
    radius = p.outer_radius
    tx = encode_batch(messages(size, k), p)
    clean = [eval_on_zero_grid(tx, r, k) for r in (radius, 1.0 / radius)]
    want_rng = np.random.default_rng(5)
    want = _fade_batch(
        clean[0].copy(), clean[1].copy(), model, want_rng, radius, np.empty_like(clean[0])
    )
    grids = [_rows(flat_buffer(k), size, k) for _ in range(2)]
    for grid, values in zip(grids, clean):
        grid[...] = values
    mix = _rows(flat_buffer(k), size, k)
    rng = np.random.default_rng(5)
    got = _fade_batch(grids[0], grids[1], model, rng, radius, mix)
    assert got[0] is grids[0] and got[1] is grids[1]
    assert same(got[0], want[0]) and same(got[1], want[1])
    assert rng.bit_generator.state == want_rng.bit_generator.state
    for grid, values in zip(grids, clean):
        grid[...] = values
    peak = peak_bytes(
        lambda: _fade_batch(grids[0], grids[1], model, np.random.default_rng(5), radius, mix)
    )
    assert peak < grids[0].nbytes / 4


def test_awgn_model_fade_returns_its_input():
    # The grids come back as they went in, and nothing is drawn.
    p = ModulationParams(31)
    tx = encode_batch(messages(4, 31), p)
    grids = [eval_on_zero_grid(tx, r, 31) for r in (p.outer_radius, 1.0 / p.outer_radius)]
    before = [grid.copy() for grid in grids]
    rng = np.random.default_rng(0)
    got = _fade_batch(grids[0], grids[1], "awgn", rng, p.outer_radius, np.empty_like(grids[0]))
    assert got[0] is grids[0] and got[1] is grids[1]
    assert same(grids[0], before[0]) and same(grids[1], before[1])
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestAwgnOut:
    def test_zero_variance_copies_into_out_without_a_draw(self):
        # At variance 0 the block of received rows comes back as a fresh
        # array, bitwise the input, and nothing is drawn.
        x = faded_rows(8, 31, "awgn")
        rng = np.random.default_rng(8)
        out = awgn(x, 0.0, rng)
        assert out is not x and not np.shares_memory(out, x)
        assert same(out, x)
        assert rng.bit_generator.state == np.random.default_rng(8).bit_generator.state


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
