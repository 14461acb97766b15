"""The BER chain's caller-supplied buffers: each kernel's ``out=`` result is
bitwise the allocating result, and the call allocates less than a quarter of
the block it reads or writes, beyond the screen's indices of the open bits.

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
from moczsim.simulate import (
    _BER_BLOCK,
    _bit_errors,
    _bit_table,
    _clean_logs,
    _fade_batch,
    _rows,
    _screened_errors,
    _signal_and_threshold,
)
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


def clean_block(size: int, k: int):
    """The (B, K) clean logs of a block of messages, and its (B, K, 2) mask."""
    msgs = messages(size, k)
    table = _bit_table(ModulationParams(k))
    logs = _clean_logs(
        msgs.astype(np.float64), table, np.empty((size, table[0]), dtype=complex),
        np.empty((size, k)), np.empty((size, k), dtype=complex),
    )
    mask = np.repeat(-msgs.astype(np.int64)[..., None], 2, axis=2)
    return msgs, logs, mask


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "k, model", [(127, "rayleigh_flat"), (127, "rician_selective"), (511, "rician_selective")]
)
def test_fade_into_out_is_the_allocating_fade(k, model, size):
    # As in run_ber, the fade adds the channel's logs to the clean logs in
    # place, with the channel's two grids in the convolution buffer's
    # complex rows and its scratch in the noise buffer's floats.
    p = ModulationParams(k)
    radius = p.outer_radius
    _, clean, mask = clean_block(size, k)
    want_rng = np.random.default_rng(5)
    want = _fade_batch(
        clean.copy(), mask, model, want_rng, radius, np.empty((2,) + clean.shape, dtype=complex),
        np.empty(clean.shape),
    )
    logs = _rows(flat_buffer(k), size, k)
    logs[...] = clean
    grids = _rows(flat_buffer(2 * k), 2 * size, k).reshape(2, size, k)
    scratch = _rows(flat_buffer(k, dtype=float), size, k)
    rng = np.random.default_rng(5)
    assert _fade_batch(logs, mask, model, rng, radius, grids, scratch) is logs
    assert same(logs, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
    logs[...] = clean
    peak = peak_bytes(
        lambda: _fade_batch(logs, mask, model, np.random.default_rng(5), radius, grids, scratch)
    )
    assert peak < logs.nbytes / 4


def test_awgn_model_fade_returns_its_input():
    # The logs come back as they went in, and nothing is drawn.
    p = ModulationParams(31)
    _, logs, mask = clean_block(4, 31)
    before = logs.copy()
    rng = np.random.default_rng(0)
    grids, scratch = np.empty((2,) + logs.shape, dtype=complex), np.empty(logs.shape)
    assert _fade_batch(logs, mask, "awgn", rng, p.outer_radius, grids, scratch) is logs
    assert same(logs, before)
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
    # run_ber's decode: the noise on both zero grids, the signal points'
    # noise and the thresholds, then the screened errors of three points,
    # each into its buffers.  The erring bits are those of the allocating
    # decode of the same noisy packets (the decoder is encode ->
    # sample-domain fade -> awgn), and each point's count is the full
    # evaluation's of every bit.
    p = ModulationParams(k)
    radius = p.outer_radius
    msgs, logs, mask = clean_block(size, k)
    _fade_batch(
        logs, mask, model, np.random.default_rng(3), radius,
        np.empty((2,) + logs.shape, dtype=complex), np.empty(logs.shape),
    )
    values = np.exp(logs)
    rx = faded_rows(size, k, model)
    parts = np.random.default_rng(4).standard_normal((2,) + rx.shape)
    noise = parts[0] + 1j * parts[1]
    scale = math.sqrt(0.5 / k / 2.0)
    want_bits, _ = dizet_decode_batch(rx, p)
    grids = [_rows(flat_buffer(k), size, k) for _ in range(2)]
    for r, grid in zip([radius, 1.0 / radius], grids):
        assert eval_on_zero_grid(noise, r, k, out=grid) is grid
        assert peak_bytes(lambda: eval_on_zero_grid(noise, r, k, out=grid)) < rx.nbytes / 4
    thresholds, mags = (_rows(flat_buffer(k, dtype=float), size, k) for _ in range(2))
    signal, got = _signal_and_threshold(
        grids[0], grids[1], mask, radius, rx.shape[1], thresholds, mags
    )
    assert signal is grids[1] and got is thresholds
    mix = grids[0]
    errors = _bit_errors(values, signal, thresholds, scale, mix, mags)
    assert np.array_equal(mags < thresholds, want_bits != msgs)
    assert errors == np.count_nonzero(want_bits != msgs)
    peak = peak_bytes(lambda: _bit_errors(values, signal, thresholds, scale, mix, mags))
    assert peak < rx.nbytes / 4
    # The screen and the open bits' points, in the buffers that run_ber
    # passes: the first grid, the mask and the floats behind the thresholds.
    # Beyond them it allocates only the open bits' indices (8 bytes a bit)
    # and each point's flags (1 byte a bit).
    scales = [scale * 4.0, scale, scale / 4.0]
    full = [_bit_errors(values, signal, thresholds, s, mix, mags) for s in scales]
    assert full[1] == errors
    held = logs.copy(), signal.copy(), thresholds.copy()
    words, behind = _rows(flat_buffer(k), size, k), _rows(flat_buffer(k, dtype=float), size, k)

    def screened():
        for array, value in zip((logs, signal, thresholds), held):
            array[...] = value
        return _screened_errors(logs, signal, thresholds, scales, mix, words, behind)

    assert screened() == full
    peak = peak_bytes(screened)
    assert peak < 9 * logs.size + rx.nbytes / 4


@pytest.mark.parametrize("n", [20, 31, 32, 75, 93])
def test_grid_into_out_is_the_allocating_grid(n):
    # Shorter than K (zero-extended), exactly K, one sample over, and several folds.
    y = np.random.default_rng(n).standard_normal((3, n)) + 0j
    out = np.full((3, 31), np.nan, dtype=complex)
    assert eval_on_zero_grid(y, 1.1, 31, out=out) is out
    assert same(out, eval_on_zero_grid(y, 1.1, 31))
