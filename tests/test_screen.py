"""The BER sweep's magnitude screen against a full evaluation of every bit.

``run_ber`` settles each bit whose bound |C|/s - |Z| exceeds its threshold
at the grid's largest noise scale s, and tests only the others at each
point.  The oracle here evaluates every bit of the same blocks, with the
same C = exp(L), at every point (``_bit_errors`` on the whole block) and
must count the same errors.
"""

import math

import numpy as np
import pytest

import moczsim.simulate as simulate
from moczsim import ModulationParams, SimConfig, run_ber
from moczsim.simulate import _bit_errors, _open_bits, _screened_errors


def open_count(logs, signal, thresholds, scale: float) -> int:
    """How many bits ``_open_bits`` leaves open at ``scale``, in buffers of its own."""
    bounds = np.empty((2,) + logs.shape)
    flags = np.empty(logs.shape, dtype=bool)
    return _open_bits(logs, signal, thresholds, scale, bounds, flags).size


def full_errors(logs, signal, thresholds, scales) -> list[int]:
    """Every bit's decision at each scale, with C = exp(L)."""
    clean = np.exp(logs)
    mix, mags = np.empty_like(clean), np.empty(clean.shape)
    return [_bit_errors(clean, signal, thresholds, s, mix, mags) for s in scales]


def scale_of(snr_db: float, k: int) -> float:
    return math.sqrt(10.0 ** (-snr_db / 10.0) / k / 2.0)


# -30 dB leaves nearly every bit open (all but one of a K=511 AWGN block's
# 65 408 here) and +60 dB none; 5 dB some.  The two orders of the
# three-point grid tell the largest scale from the first or the last.
GRIDS = [(-30.0,), (60.0,), (-30.0, 5.0, 60.0), (60.0, 5.0, -30.0)]


@pytest.mark.parametrize("k", [2, 3, 31, 127, 511])
@pytest.mark.parametrize("model", simulate.CHANNEL_MODELS)
def test_screened_counts_are_the_full_evaluation(monkeypatch, model, k):
    # Three blocks, the last one short, in one worker task: they share its
    # one buffer set.
    # The spy sees run_ber's own arrays before the screen overwrites them.
    monkeypatch.setenv("MOCZSIM_THREADS", "1")
    screened = simulate._screened_errors
    seen = []

    def spy(logs, signal, thresholds, scales, *buffers):
        want = full_errors(logs, signal, thresholds, scales)
        shares = {s: open_count(logs, signal, thresholds, s) / logs.size for s in scales}
        got = screened(logs, signal, thresholds, scales, *buffers)
        seen.append((got, want, shares))
        return got

    monkeypatch.setattr(simulate, "_screened_errors", spy)
    for grid in GRIDS:
        seen.clear()
        cfg = SimConfig(
            modulation=ModulationParams(k), channel_model=model, snr_grid_db=grid,
            trials=300, seed=k,
        )
        records = run_ber(cfg).records
        assert len(seen) == 3
        for got, want, shares in seen:
            assert got == want, grid
            if -30.0 in grid:
                assert shares[scale_of(-30.0, k)] > 0.999, grid
            if 60.0 in grid:
                assert shares[scale_of(60.0, k)] == 0.0, grid
        totals = [sum(counts) for counts in zip(*(got for got, _, _ in seen))]
        assert [r["bit_errors"] for r in records] == totals
        if 60.0 in grid:
            assert records[grid.index(60.0)]["bit_errors"] == 0


@pytest.mark.parametrize("k, model, snr_db, low, high", [
    (127, "awgn", 5.0, 0.12, 0.26), (511, "rician_selective", 6.0, 0.22, 0.38),
])
def test_open_shares_at_the_benchmark_grids_lowest_points(
    monkeypatch, k, model, snr_db, low, high
):
    # The share of bits the screen leaves open on seed-1 blocks: about a
    # fifth at K=127 and 5 dB on AWGN, and under a third at K=511 and 6 dB
    # on the Rician fade.
    monkeypatch.setenv("MOCZSIM_THREADS", "1")
    screened = simulate._screened_errors
    shares = []

    def spy(logs, signal, thresholds, scales, *buffers):
        shares.append(open_count(logs, signal, thresholds, max(scales)) / logs.size)
        return screened(logs, signal, thresholds, scales, *buffers)

    monkeypatch.setattr(simulate, "_screened_errors", spy)
    run_ber(SimConfig(
        modulation=ModulationParams(k), channel_model=model, snr_grid_db=(snr_db,),
        trials=512, seed=1,
    ))
    assert low < np.mean(shares) < high, shares


@pytest.mark.parametrize("gap, settled", [
    (0.0, False), (1e-14, False), (-1e-9, False), (1e-9, True), (1.0, True),
])
def test_margin_settles_only_clear_bits(gap, settled):
    # |Z| = 5 and a threshold of 2: a bit is settled only where |C|/s
    # exceeds 7 by more than the screen's margin (1e-12 relative).
    scale = 1e-3
    signal = np.full((2, 3), 3 + 4j)
    thresholds = np.full((2, 3), 2.0)
    logs = np.full((2, 3), math.log(7.0 * (1.0 + gap) * scale) + 2.5j)
    assert open_count(logs, signal, thresholds, scale) == (0 if settled else logs.size)


def test_settled_bits_cannot_err_even_against_their_noise():
    # The worst phase: C/s points exactly against Z, so |C/s + Z| = |C|/s -
    # |Z|.  Bits just outside the margin are settled, and the full
    # evaluation finds no error there at the screen's scale or below it.
    rng = np.random.default_rng(7)
    shape = (16, 31)
    signal = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    thresholds = np.abs(rng.standard_normal(shape))
    scale = 0.25
    bound = (np.abs(signal) + thresholds) * (1.0 + 1e-11)
    logs = np.log(-bound * scale * signal / np.abs(signal))
    assert open_count(logs, signal, thresholds, scale) == 0
    assert full_errors(logs, signal, thresholds, [scale, scale / 3.0, scale / 1e6]) == [0, 0, 0]
    spare, words = np.empty(shape, dtype=complex), np.empty(shape + (2,), dtype=np.int64)
    floats = np.empty(shape)
    assert _screened_errors(logs, signal, thresholds, [scale], spare, words, floats) == [0]
