"""Acceptance suite: one test per criterion, tolerances pinned up front.

Each test prints a single "[acceptance] ..." PASS/FAIL line (visible with
pytest -s); run times are asserted against the stated budgets.
"""

import itertools
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from moczsim import (
    ArrayConfig,
    CfarConfig,
    ModulationParams,
    SPEED_OF_LIGHT,
    SimConfig,
    ambiguity_function,
    autocorrelation,
    awgn,
    cross_correlate,
    cross_spectrum,
    derive_side_peak,
    dft_codebook,
    dizet_decode,
    dizet_decode_batch,
    encode,
    encode_batch,
    estimate_delay,
    estimate_doppler,
    eval_on_zero_grid,
    fractional_delay,
    make_beamformers,
    music_angles,
    run_ber,
    run_cfar_calibration,
    sample_covariance,
    steering,
)

from horner import eval_on_grid
from zero_pattern import expected_end_energy

RANGE_CELL_M = SPEED_OF_LIGHT / (2 * 100e6)  # 1.499 m at W = 100 MHz


def report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status} in {elapsed:.1f}s{suffix}")
    assert ok, f"{name} failed{suffix}"


def batch_autocorr_error(seqs: np.ndarray, side_peak: float) -> float:
    """Max abs deviation of each row's autocorrelation from the Huffman pattern."""
    b, n = seqs.shape
    m = 2 * n  # covers the full 2K+1 aperiodic support without wraparound
    spec = np.fft.fft(seqs, m, axis=1)
    circ = np.fft.ifft(np.abs(spec) ** 2, axis=1)
    expected = np.zeros(m)
    expected[0] = 1.0
    expected[n - 1] = -side_peak
    expected[m - (n - 1)] = -side_peak
    return float(np.max(np.abs(circ - expected[None, :])))


def test_criterion_1_huffman_invariant_suite():
    start = time.time()
    worst_ac = 0.0
    worst_end = 0.0
    worst_energy = 0.0

    for k in range(2, 11):
        p = ModulationParams(k)
        msgs = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int8)
        seqs = encode_batch(msgs, p)
        worst_ac = max(worst_ac, batch_autocorr_error(seqs, p.side_peak))
        weights = msgs.sum(axis=1)
        r2k = p.outer_radius ** (2 * k)
        x0 = np.sqrt(p.outer_radius ** (2.0 * weights) / (1 + r2k))
        xk = -np.sqrt(p.outer_radius ** (2.0 * (k - weights)) / (1 + r2k))
        worst_end = max(
            worst_end,
            float(np.max(np.abs(seqs[:, 0] - x0))),
            float(np.max(np.abs(seqs[:, -1] - xk))),
        )
        worst_energy = max(
            worst_energy, float(np.max(np.abs(np.sum(np.abs(seqs) ** 2, axis=1) - 1)))
        )

    rng = np.random.default_rng(2024)
    for k in (31, 127, 511):
        p = ModulationParams(k)
        msgs = rng.integers(0, 2, (1000, k), dtype=np.int8)
        seqs = encode_batch(msgs, p)
        worst_ac = max(worst_ac, batch_autocorr_error(seqs, p.side_peak))
        weights = msgs.sum(axis=1)
        r2k = p.outer_radius ** (2 * k)
        x0 = np.sqrt(p.outer_radius ** (2.0 * weights) / (1 + r2k))
        xk = -np.sqrt(p.outer_radius ** (2.0 * (k - weights)) / (1 + r2k))
        worst_end = max(
            worst_end,
            float(np.max(np.abs(seqs[:, 0] - x0))),
            float(np.max(np.abs(seqs[:, -1] - xk))),
        )
        worst_energy = max(
            worst_energy, float(np.max(np.abs(np.sum(np.abs(seqs) ** 2, axis=1) - 1)))
        )

    elapsed = time.time() - start
    ok = worst_ac < 1e-9 and worst_end < 1e-9 and worst_energy < 1e-9 and elapsed < 30
    report(
        "criterion 1 (Huffman invariants)",
        ok,
        elapsed,
        f"autocorr {worst_ac:.2e}, ends {worst_end:.2e}, energy {worst_energy:.2e}",
    )


def test_criterion_2_zero_doppler_psl():
    start = time.time()
    p = ModulationParams(511, 0.5)
    x = encode(np.random.default_rng(7).integers(0, 2, 511), p)
    surf = ambiguity_function(x, 511, 64)
    cut = surf.values[:, np.where(surf.doppler_cycles == 0)[0][0]]
    lag0 = np.where(surf.lags == 0)[0][0]
    sidelobes = np.delete(cut, lag0)
    psl = float(np.max(sidelobes) / cut[lag0])
    elapsed = time.time() - start
    ok = (
        abs(psl - 0.2001) <= 1e-3
        and abs(psl - derive_side_peak(p.outer_radius, 511)) < 1e-9
        and elapsed < 5
    )
    report("criterion 2 (PSL equals side peak)", ok, elapsed, f"psl {psl:.6f}")


def test_criterion_3_noiseless_decode_exactness():
    start = time.time()
    k = 31
    p = ModulationParams(k)
    rng = np.random.default_rng(99)
    grid = np.concatenate(
        [
            p.outer_radius * np.exp(2j * np.pi * np.arange(k) / k),
            np.exp(2j * np.pi * np.arange(k) / k) / p.outer_radius,
        ]
    )

    n_channels = 10_000
    msgs = rng.integers(0, 2, (n_channels, k), dtype=np.int8)
    seqs = encode_batch(msgs, p)
    errors = 0
    for i in range(n_channels):
        while True:
            taps = rng.integers(1, 9)
            h = (rng.standard_normal(taps) + 1j * rng.standard_normal(taps)) / np.sqrt(2)
            if taps == 1:
                break
            roots = np.roots(h[::-1])
            if np.min(np.abs(roots[:, None] - grid[None, :])) >= 1e-3:
                break
        rx = np.convolve(h, seqs[i])
        if not np.array_equal(dizet_decode(rx, p)[0], msgs[i]):
            errors += 1
    elapsed = time.time() - start
    ok = errors == 0 and elapsed < 60
    report(
        "criterion 3 (noiseless multipath decode)", ok, elapsed, f"{errors} packet errors"
    )


def test_criterion_4_ber_gap_and_channel_ordering(monkeypatch):
    # The records are the same at any worker count; two workers shorten the run.
    monkeypatch.setenv("MOCZSIM_THREADS", "2")
    start = time.time()
    bpsk_1e3_db = 10 * math.log10(NormalDist().inv_cdf(1 - 1e-3) ** 2 / 2)  # 6.79 dB
    gap_point = bpsk_1e3_db + 4.0
    grid = (5.0, 7.0, 9.0, gap_point)

    awgn_cfg = SimConfig(
        modulation=ModulationParams(127),
        channel_model="awgn",
        snr_grid_db=grid,
        trials=200_000,
        seed=41,
    )
    awgn_recs = run_ber(awgn_cfg).records
    gap_ber = awgn_recs[-1]["ber"]

    fading_ok = True
    detail_parts = [f"awgn@{gap_point:.2f}dB={gap_ber:.2e}"]
    for model in ("rayleigh_flat", "rician_selective"):
        cfg = SimConfig(
            modulation=ModulationParams(127),
            channel_model=model,
            snr_grid_db=grid,
            trials=50_000,
            seed=42,
        )
        recs = run_ber(cfg).records
        for fade, base in zip(recs, awgn_recs):
            if fade["snr_db"] >= 5.0 and fade["ber"] < base["ber"]:
                fading_ok = False
        detail_parts.append(f"{model}@{grid[-1]:.2f}dB={recs[-1]['ber']:.2e}")

    elapsed = time.time() - start
    ok = gap_ber <= 1e-3 and fading_ok and elapsed < 600
    report("criterion 4 (BER gap to coherent BPSK)", ok, elapsed, ", ".join(detail_parts))


def test_criterion_5_cfar_false_alarm_calibration():
    start = time.time()
    cfg = SimConfig(
        modulation=ModulationParams(127),
        cfar=CfarConfig(window=12, guard=2, os_rank=18, pfa=1e-4),
        trials=9766,  # 9766 frames of 1024 cells: at least 10 M cells, in 153 chunks
        seed=51,
    )
    rec = run_cfar_calibration(cfg).records[0]
    elapsed = time.time() - start
    rate = rec["pfa_empirical"]
    ok = 0.3e-4 <= rate <= 3e-4 and rec["cells"] >= 10_000_000 and elapsed < 300
    report(
        "criterion 5 (OS-CFAR calibration)",
        ok,
        elapsed,
        f"rate {rate:.2e} over {rec['cells']} cells",
    )


def test_criterion_6_delay_estimation():
    start = time.time()
    p = ModulationParams(511)
    rng = np.random.default_rng(61)
    x = encode(rng.integers(0, 2, 511), p)
    t_sample = 1e-8
    frame = 1024

    worst_frac = 0.0
    for frac in np.arange(0.1, 0.95, 0.1):
        shift = 300 + frac
        rx = fractional_delay(x, shift, frame)
        spec = cross_spectrum(x, rx)
        peak = int(np.argmax(np.abs(np.fft.ifft(spec))))
        got = estimate_delay(spec, peak, t_sample)
        worst_frac = max(worst_frac, abs(got - shift * t_sample) / t_sample)

    sq_err = []
    for _ in range(1000):
        shift = 300 + rng.uniform(0.0, 1.0)
        rx = fractional_delay(x, shift, frame)
        rx = awgn(rx, 0.01, rng)  # unit peak power: post-correlation SNR 20 dB
        spec = cross_spectrum(x, rx)
        peak = int(np.argmax(np.abs(np.fft.ifft(spec))))
        got = estimate_delay(spec, peak, t_sample)
        sq_err.append(((got - shift * t_sample) * SPEED_OF_LIGHT / 2) ** 2)
    rmse_m = math.sqrt(np.mean(sq_err))

    elapsed = time.time() - start
    ok = worst_frac < 0.05 and rmse_m <= RANGE_CELL_M and elapsed < 300
    report(
        "criterion 6 (delay estimation)",
        ok,
        elapsed,
        f"max fractional err {worst_frac:.4f} cells, 20 dB RMSE {rmse_m:.3f} m",
    )


def test_criterion_7_doppler_estimation():
    start = time.time()
    times = np.arange(16) * 1e-3
    phases = 2 * np.pi * 100.0 * times + 1.1
    exact_err = abs(estimate_doppler(phases, times) - 100.0)

    sigma = 0.1
    rng = np.random.default_rng(71)
    errs = [
        estimate_doppler(phases + sigma * rng.standard_normal(16), times) - 100.0
        for _ in range(2000)
    ]
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    theory = sigma / (2 * np.pi * math.sqrt(np.sum((times - times.mean()) ** 2)))

    elapsed = time.time() - start
    ok = exact_err < 1e-6 and rmse <= 2 * theory and elapsed < 60
    report(
        "criterion 7 (Doppler estimation)",
        ok,
        elapsed,
        f"exact err {exact_err:.2e} Hz, noisy RMSE {rmse:.3f} vs theory {theory:.3f} Hz",
    )


def test_criterion_8_music_angle():
    start = time.time()
    cfg = ArrayConfig(64, 4)
    segment = (-np.radians(8.0), np.radians(8.0))
    bf = make_beamformers(segment, cfg)

    # noiseless target on the scan grid: exact up to the parabolic refinement
    on_grid = np.radians(2.0)
    b = bf.rx_matrix.conj().T @ steering(on_grid, 64)
    got = music_angles(np.outer(b, b.conj()), bf.rx_matrix, 1, segment)
    grid_err_deg = abs(np.degrees(got[0]) - 2.0)

    # 20 dB per-chain SNR target off the grid
    rng = np.random.default_rng(81)
    truth = np.radians(1.3)
    b = bf.rx_matrix.conj().T @ steering(truth, 64)
    power = 100.0 * cfg.num_rf_chains / np.linalg.norm(b) ** 2
    sq = []
    for _ in range(200):
        s = math.sqrt(power / 2) * (
            rng.standard_normal(512) + 1j * rng.standard_normal(512)
        )
        y = np.outer(b, s)
        y += (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)) / math.sqrt(2)
        est = music_angles(sample_covariance(y), bf.rx_matrix, 1, segment)
        sq.append((np.degrees(est[0] - truth)) ** 2)
    rmse_deg = math.sqrt(np.mean(sq))

    elapsed = time.time() - start
    ok = grid_err_deg <= 0.25 and rmse_deg < 1.0 and elapsed < 120
    report(
        "criterion 8 (MUSIC angle)",
        ok,
        elapsed,
        f"on-grid err {grid_err_deg:.3f} deg, 20 dB RMSE {rmse_deg:.3f} deg",
    )


def test_criterion_9_oracle_equivalences():
    start = time.time()
    rng = np.random.default_rng(91)

    # spectral vs direct circular cross-correlation
    worst_xcorr = 0.0
    for n in (16, 100, 256):
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = cross_correlate(x, y)
        xp = np.zeros(n, dtype=complex)
        xp[:9] = x
        direct = np.array(
            [np.sum(np.conj(np.roll(xp, lag)) * y) for lag in range(n)]
        )
        worst_xcorr = max(
            worst_xcorr, float(np.max(np.abs(fast - direct)) / np.max(np.abs(direct)))
        )

    # exhaustive end-energy mean vs binomial closed form
    worst_energy = 0.0
    for k in range(2, 11):
        p = ModulationParams(k)
        msgs = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int8)
        mean = float(np.mean(np.abs(encode_batch(msgs, p)[:, 0]) ** 2))
        worst_energy = max(worst_energy, abs(mean - expected_end_energy(p)))

    # folded-DFT grid evaluation vs Horner
    worst_eval = 0.0
    p = ModulationParams(127)
    for n in (128, 200, 511):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for radius in (p.outer_radius, 1 / p.outer_radius):
            h = eval_on_grid(y, radius, 127)
            f = eval_on_zero_grid(y, radius, 127)
            worst_eval = max(
                worst_eval, float(np.max(np.abs(h - f)) / np.max(np.abs(h)))
            )

    elapsed = time.time() - start
    ok = worst_xcorr < 1e-9 and worst_energy < 1e-12 and worst_eval < 1e-9
    report(
        "criterion 9 (oracle equivalences)",
        ok,
        elapsed,
        f"xcorr {worst_xcorr:.2e}, end energy {worst_energy:.2e}, eval {worst_eval:.2e}",
    )
