"""Experiment orchestration: determinism, channel models, and the radar pipeline."""

import dataclasses
import importlib.util
import json
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radar_oracle
from cfar_gather import normal_chunk_power
from fade_oracle import fade_samples
from moczsim import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    CfarConfig,
    FrameSchedule,
    LinkBudget,
    ModulationParams,
    SimConfig,
    TargetSpec,
    awgn,
    config_from_dict,
    config_to_dict,
    dizet_decode_batch,
    encode,
    load_config,
    os_cfar,
    run_ber,
    run_cfar_calibration,
    run_radar,
)
import moczsim.simulate as simulate
from moczsim.channel import DB_LIMIT
from moczsim.simulate import _max_workers, atomic_write_text, write_result

ROOT = Path(__file__).resolve().parent.parent
SCENE = ROOT / "configs" / "scene.json"
RANGE_CELL_M = SPEED_OF_LIGHT / (2 * 100e6)

# (document, text naming the key that the error must contain)
BAD_CONFIGS = [
    ({"trails": 5, "modulaton": {"k": 31}}, "trails"),
    ({"modulation": {"kk": 31}}, "modulation.kk"),
    ({"snr_grid_db": [float("nan")]}, "snr_grid_db[0]"),
    ({"cfar": {"pfa": float("inf")}}, "cfar.pfa"),
    ({"link": {"w": 10**400}}, "link.w"),
    # An integer beyond the float range reads as an infinity of its sign.
    ({"link": {"eirp": 10**400}}, "link.eirp must be a finite number, got inf"),
    ({"link": {"eirp": -(10**400)}}, "link.eirp must be a finite number, got -inf"),
    ({"trials": "5"}, "trials"),
    ({"seed": 1.5}, "seed"),
    ({"channel_model": 3}, "channel_model"),
    ({"schedule": []}, "schedule"),
    ({"schedule": {"segment_deg": [-8.0]}}, "schedule.segment_deg"),
    ({"schedule": {"segment_deg": [-8.0, 0.0, 8.0]}}, "schedule.segment_deg must be a [low, high] pair"),
    # JSON true is neither an integer nor a number, and a list field needs a list.
    ({"trials": True}, "trials must be an integer, got True"),
    ({"link": {"w": True}}, "link.w must be a number, got True"),
    ({"targets": {"range_m": 50.0}}, "targets must be a list"),
    ({"targets": [{"velocity_mps": 3.0}]}, "targets[0].range_m"),
    ({"angle_grid_deg": 0.5}, "angle_grid_deg"),
    ({"link": {"range": 50.0}}, "link.range"),
    ({"schedule": {"t_cpi": 1e-4}}, "schedule.t_cpi"),
    ({"schedule": {"segments_deg": [[-8.0, 8.0]]}}, "schedule.segments_deg"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"targets": [{"range_m": 50.0}, {"range_m": -5.0}]}, "targets[1].range_m"),
    ({"targets": [{"range_m": 50.0}], "range_grid_m": [30.0, 0.0]}, "range_grid_m[1]"),
    # At a tiny bandwidth the frame admits ranges whose fourth power overflows.
    (
        {"link": {"w": 1e-75}, "targets": [{"range_m": 50.0}], "range_grid_m": [1e77, 1e80]},
        "range_grid_m[1] = 1e+80 m: range_m**4 overflows",
    ),
    ({"targets": [{"range_m": 50.0, "angle_deg": 120.0}]}, "targets[0].angle_deg"),
    # A section's own checks are raised again with the section key in front.
    ({"schedule": {"frames_per_cpi": 0}}, "schedule: frames_per_cpi must be >= 1"),
    # Field names in that message are replaced by their JSON keys.
    (
        {"schedule": {"segment_deg": [8.0, -8.0]}},
        "schedule: segment_deg must be an ordered interval within [-90, 90] degrees",
    ),
    ({"array": {"n_rf": 0}}, "array: need 1 <= n_rf <= n_a"),
    ({"modulation": {"k": 0}}, "modulation: k must be >= 1"),
    # 10 ** (x / 10) of these overflows a float.
    ({"snr_grid_db": [4000]}, "snr_grid_db[0] must lie within +-3082 dB"),
    ({"link": {"eirp": 4000}}, "link: eirp must lie within +-3082 dB"),
    ({"targets": [{"range_m": 50.0, "rcs_dbsm": 4000}]}, "targets[0].rcs_dbsm"),
    # The radar gain's wavelength**2 overflows, or is inf, at these carriers;
    # the noise variance noise_psd * w is inf.
    ({"link": {"f_c": 1e-200}}, "link: f_c = 1e-200"),
    ({"link": {"f_c": 1e-300}}, "link: f_c = 1e-300"),
    ({"link": {"noise_psd": 1e301}}, "link: noise_psd * w must be finite"),
    # Each lies within +-3082 dB, but their product with the target's gain
    # overflows the correlation power.
    (
        {"link": {"eirp": 3000.0}, "trials": 2, "targets": [{"range_m": 60.0, "rcs_dbsm": 3000.0}]},
        "targets[0].range_m = 60.0 m: the peak correlation power",
    ),
    (
        {"targets": [{"range_m": 50.0, "rcs_dbsm": 3000.0}], "range_grid_m": [50.0, 1e-3]},
        "range_grid_m[1] = 0.001 m: the peak correlation power",
    ),
    # The radar's two Wishart draws need frame 0's N - T - 1 >= n_rf - 1 and,
    # for F >= 2, the later frames' (F - 1)(N - 2T) >= n_rf degrees of
    # freedom.  Each of these is one n_rf past its bound, and the other
    # bound holds: 32 - 1 - 1 < 32 - 1 with one frame, then 1 * (32 - 2) < 31
    # and 32 - 1 - 1 >= 31 - 1 with two frames and one target, and
    # 1 * (32 - 4) < 29 with two frames and two targets.
    (
        {
            "modulation": {"k": 31},
            "frame_len": 32,
            "array": {"n_rf": 32},
            "schedule": {"frames_per_cpi": 1},
            "targets": [{"range_m": 30.0}],
        },
        "frame_len = 32 is too short",
    ),
    (
        {
            "modulation": {"k": 31},
            "frame_len": 32,
            "array": {"n_rf": 31},
            "schedule": {"frames_per_cpi": 2},
            "targets": [{"range_m": 30.0}],
        },
        "frame_len = 32 is too short for the radar receive draw",
    ),
    (
        {
            "modulation": {"k": 31},
            "frame_len": 32,
            "array": {"n_rf": 29},
            "schedule": {"frames_per_cpi": 2},
            "targets": [{"range_m": 30.0}, {"range_m": 15.0}],
        },
        "frame_len = 32 is too short for the radar receive draw: need",
    ),
]
BAD_CONFIG_IDS = [key for _, key in BAD_CONFIGS]

NARROW = FrameSchedule(segment_deg=(-180 / 22, 180 / 22), frames_per_cpi=8)


def small_ber_config(**overrides):
    base = dict(
        modulation=ModulationParams(31),
        snr_grid_db=(2.0, 6.0),
        trials=4000,
        seed=11,
        batch_size=1000,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRunBer:
    # At K <= 3 a rician_selective packet of K+4 samples is longer than 2K.
    @pytest.mark.parametrize("k", [2, 3, 31])
    def test_noise_off_gives_zero_errors_on_every_model(self, k):
        for model in ("awgn", "rayleigh_flat", "rician_selective"):
            cfg = small_ber_config(
                modulation=ModulationParams(k), channel_model=model, snr_grid_db=(300.0,),
                trials=2000,
            )
            rec = run_ber(cfg).records[0]
            assert rec["bit_errors"] == 0
            assert rec["ber"] == 0.0

    def test_reproducible(self):
        cfg = small_ber_config()
        r1 = run_ber(cfg)
        r2 = run_ber(cfg)
        assert r1.records == r2.records

    def test_worker_count_does_not_change_output(self, monkeypatch):
        cfg = small_ber_config()
        base = run_ber(cfg).records
        monkeypatch.setenv("MOCZSIM_THREADS", "4")
        assert run_ber(cfg).records == base

    # Trials on both sides of one, two, four, eight and sixteen 128-packet
    # blocks, and 2500 (19 whole blocks and a short one); the batch sizes run
    # one packet, parts of a block, whole blocks and more than the trials per
    # worker task.  Each worker task has its own buffer set, so a buffer
    # shared across tasks would show only at two workers, on any model.  The
    # derandomized search covers all 324 cases.
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        trials=st.sampled_from((127, 129, 255, 257, 511, 513, 1023, 1025, 2500)),
        batch_size=st.sampled_from((1, 500, 1000, 1024, 4096, 16384)),
        threads=st.sampled_from(("1", "2")),
        model=st.sampled_from(simulate.CHANNEL_MODELS),
    )
    def test_batch_size_and_worker_count_do_not_change_output(
        self, trials, batch_size, threads, model
    ):
        cfg = small_ber_config(trials=trials, batch_size=batch_size, channel_model=model)
        with mock.patch.dict(os.environ, {"MOCZSIM_THREADS": threads}):
            records = run_ber(cfg).records
        with mock.patch.dict(os.environ, {"MOCZSIM_THREADS": "1"}):
            assert records == run_ber(dataclasses.replace(cfg, batch_size=trials)).records

    @pytest.mark.parametrize("model", simulate.CHANNEL_MODELS)
    def test_each_block_is_encoded_and_faded_once_for_the_grid(self, monkeypatch, model):
        # 1300 packets are eleven blocks, the last one short.  Each block
        # is evaluated on the two zero grids twice (its faded packets, its
        # noise); every SNR point decides from those values, and the
        # allocating decoder never runs.
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        names = (
            "encode_batch", "_fade_batch", "eval_on_zero_grid", "decide", "dizet_decode_batch",
        )
        for name in names:
            monkeypatch.setattr(simulate, name, counting(name, getattr(simulate, name)))
        blocks = -(-1300 // simulate._BER_BLOCK)
        for grid in ((4.0,), (0.0, 3.0, 6.0, 9.0)):
            calls.clear()
            run_ber(small_ber_config(channel_model=model, snr_grid_db=grid, trials=1300))
            assert calls == {
                "encode_batch": blocks,
                "_fade_batch": blocks,
                "eval_on_zero_grid": 4 * blocks,
                "decide": blocks * len(grid),
            }

    def test_appending_points_leaves_the_earlier_records_unchanged(self, monkeypatch):
        # A block's packets, fades and noise do not depend on the grid at
        # all, and each point's decisions read only its own noise scale.
        monkeypatch.setenv("MOCZSIM_THREADS", "2")
        cfg = small_ber_config(channel_model="rician_selective", trials=1300, batch_size=512)
        short = run_ber(cfg).to_csv().splitlines()
        longer = run_ber(dataclasses.replace(cfg, snr_grid_db=cfg.snr_grid_db + (9.0, 4.0)))
        lines = longer.to_csv().splitlines()
        assert len(lines) == len(short) + 2
        assert lines[: len(short)] == short

    @pytest.mark.parametrize("model", ["awgn", "rician_selective"])
    def test_shared_packets_keep_each_points_error_rate(self, model):
        # The sweep decodes the same packets and channels at every point; a
        # reference that draws every point's packets, fades and noise anew
        # must see the same error rate at each point.  Bit errors of one
        # packet are nearly independent on these models (their variance is
        # 1.09 and 1.31 times the binomial one at K=31, 2 dB), so two counts
        # of n bits at rate p differ by less than 4.5 sigma, with sigma^2 =
        # 2 * 1.5 * n p (1 - p) and p the pooled rate.
        cfg = small_ber_config(channel_model=model, snr_grid_db=(2.0, 4.0, 6.0), trials=6000)
        params = cfg.modulation
        k = params.num_bits
        n = cfg.trials * k
        records = run_ber(cfg).records
        for point, (snr_db, rec) in enumerate(zip(cfg.snr_grid_db, records)):
            rng = np.random.default_rng([404, point])
            msgs = rng.integers(0, 2, (cfg.trials, k), dtype=np.int8)
            tx = fade_samples(simulate.encode_batch(msgs, params), model, rng)
            rx = awgn(tx, 10.0 ** (-snr_db / 10.0) / k, rng)
            bits, _ = dizet_decode_batch(rx, params)
            ref_errors = int(np.count_nonzero(bits != msgs))
            rate = (rec["bit_errors"] + ref_errors) / (2 * n)
            sigma = math.sqrt(2 * 1.5 * n * rate * (1 - rate))
            assert abs(rec["bit_errors"] - ref_errors) < 4.5 * sigma, (snr_db, rec, ref_errors)

    @pytest.mark.parametrize("k", [31, 127, 511])
    @pytest.mark.parametrize("model", simulate.CHANNEL_MODELS)
    def test_grid_decision_is_the_decode_of_the_noisy_packets(self, model, k):
        # The zero-grid values are linear in the samples, so deciding from
        # C + s Z must be decoding x + s z.  The two orders of the same sums
        # round differently: the margins agree to 1e-9 (3e-13 at most here),
        # and the bits wherever a margin is further than that from zero.
        params = ModulationParams(k)
        radius = params.outer_radius
        rng = np.random.default_rng(k)
        msgs = rng.integers(0, 2, (64, k), dtype=np.int8)
        clean = fade_samples(simulate.encode_batch(msgs, params), model, rng)
        z = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        grids = [
            simulate.eval_on_zero_grid(x, r, k) for x in (clean, z) for r in (radius, 1.0 / radius)
        ]
        mix = np.empty((64, k), dtype=complex)
        mags = np.empty((2, 64, k))
        for snr_db in (0.0, 6.0, 12.0):
            scale = math.sqrt(10.0 ** (-snr_db / 10.0) / k / 2.0)
            bits, margins = simulate._decide_from_grids(
                grids, scale, radius, clean.shape[1], mix, mags
            )
            want_bits, want_margins = dizet_decode_batch(clean + scale * z, params)
            assert np.max(np.abs(margins - want_margins)) <= 1e-9, snr_db
            sure = np.abs(want_margins) > 1e-9
            assert np.array_equal(bits[sure], want_bits[sure]), snr_db

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [31, 511])
    @pytest.mark.parametrize("model", simulate.CHANNEL_MODELS)
    def test_snr_grid_edges(self, model, k):
        # At -DB_LIMIT the noise scale is ~1e153 and the packets vanish
        # beside it, so each bit error is the XOR of a noise decision with an
        # independent fair message bit: binomial at 1/2.  At +DB_LIMIT the
        # noise variance is subnormal and every bit is decoded.  No warning.
        cfg = small_ber_config(
            modulation=ModulationParams(k), channel_model=model,
            snr_grid_db=(-DB_LIMIT, DB_LIMIT), trials=256,
        )
        low, high = run_ber(cfg).records
        n = cfg.trials * k
        assert abs(low["bit_errors"] - n / 2) < 5 * math.sqrt(n / 4)
        assert high["bit_errors"] == 0

    def test_memory_is_bounded_by_the_block_not_the_batch(self, monkeypatch):
        # One 16384-packet task at K=127 held ~150 MB when the whole batch
        # went through each stage at once, and ~10.7 MB when each block
        # allocated its own temporaries.  The task's one buffer set is
        # 1.58 MB (3.7 MB for 512-packet blocks and one grid); with the first
        # call's log basis the peak reads 3.1 MB (was 5.3 MB).
        monkeypatch.setenv("MOCZSIM_THREADS", "1")
        cfg = SimConfig(
            modulation=ModulationParams(127), snr_grid_db=(7.0,), trials=16384, batch_size=16384
        )
        tracemalloc.start()
        try:
            run_ber(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9e6

    def test_task_buffers_are_sized_to_the_task(self, monkeypatch):
        # A 16-packet task at K=511 allocated the 1024-packet buffer set,
        # 21.4 MB, for its 16 rows.  Sized to the task it took ~0.6 MB with
        # one grid, and ~0.94 MB with the four grids of the shared noise.
        monkeypatch.setenv("MOCZSIM_THREADS", "1")
        cfg = SimConfig(
            modulation=ModulationParams(511), channel_model="rician_selective",
            snr_grid_db=(6.0,), trials=16, batch_size=16,
        )
        first = run_ber(cfg)  # fills the encoder's cached log basis
        tracemalloc.start()
        try:
            again = run_ber(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.records == first.records
        assert peak < 1e6

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
    def test_blocks_reuse_the_task_buffers(self, monkeypatch):
        # When each block allocated and freed its ~2 MB of temporaries, glibc
        # gave the pages back and the next block faulted them in again: the
        # 15 blocks beyond the first of a task took ~48 700 minor faults.
        # Running them in the task's buffer set takes ~50.
        import resource

        monkeypatch.setenv("MOCZSIM_THREADS", "1")

        def minor_faults(trials: int) -> int:
            cfg = SimConfig(
                modulation=ModulationParams(127), snr_grid_db=(7.0,), trials=trials,
                batch_size=16384,
            )
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_ber(cfg)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        minor_faults(1024)
        assert minor_faults(16 * 1024) - minor_faults(1024) < 2000

    def test_monotone_in_snr_on_awgn(self):
        cfg = small_ber_config(snr_grid_db=(0.0, 3.0, 6.0), trials=20_000)
        recs = run_ber(cfg).records
        for lo, hi in zip(recs, recs[1:]):
            sigma = math.sqrt(max(hi["ber"] * (1 - hi["ber"]), 1e-12) / (cfg.trials * 31))
            assert lo["ber"] >= hi["ber"] - 2 * sigma

    def test_reference_curve_is_coherent_bpsk(self):
        rec = run_ber(small_ber_config(snr_grid_db=(6.79,), trials=1000)).records[0]
        assert rec["bpsk_ref"] == pytest.approx(1e-3, rel=0.01)

    def test_reference_curve_to_double_precision(self):
        # 0.5*erfc(x) at x = sqrt(10**(snr_db/10)) as run_ber rounds it,
        # from mpmath at 60 digits. Out at 28 dB, a relative error of 1e-16
        # in erfc's argument alone moves the value by ~1e-13.
        pinned = {
            0.0: 0.07864960352514257,
            6.79: 0.000999428257270732,
            10.79: 4.84190266819196e-07,
            20.0: 1.0442437918812724e-45,
            28.0: 1.0684607375564134e-276,
        }
        recs = run_ber(small_ber_config(snr_grid_db=tuple(pinned), trials=100)).records
        for rec in recs:
            assert rec["bpsk_ref"] == pytest.approx(pinned[rec["snr_db"]], rel=1e-15, abs=0.0)

    def test_fading_costs_errors_at_moderate_snr(self):
        awgn_rec = run_ber(small_ber_config(snr_grid_db=(8.0,), trials=30_000)).records[0]
        ray_rec = run_ber(
            small_ber_config(channel_model="rayleigh_flat", snr_grid_db=(8.0,), trials=30_000)
        ).records[0]
        assert ray_rec["ber"] > awgn_rec["ber"]


# run_ber bit_errors pinned from the sweep that draws each 128-packet
# block's messages, fade and one unit noise block from the block's stream
# and decides every point from the block's zero-grid values:
# (K, channel model, ((snr_db, bit_errors), ...)).  Every record has 2048
# packets in two worker tasks of 1024, seed 404.  The 512-packet sweep with
# a noise stream per point gave 13754 and 2606, and 92520 and 41511.
PINNED_BER = [
    (127, "awgn", ((4.0, 13703), (7.0, 2733))),
    (511, "rician_selective", ((6.0, 91801), (10.0, 41416))),
]


class TestBerRegression:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "k, model, want", PINNED_BER, ids=[f"{m}-k{k}" for k, m, _ in PINNED_BER]
    )
    def test_records_match_the_pinned_bit_errors(self, monkeypatch, threads, k, model, want):
        monkeypatch.setenv("MOCZSIM_THREADS", threads)
        cfg = SimConfig(
            modulation=ModulationParams(k),
            channel_model=model,
            snr_grid_db=tuple(snr for snr, _ in want),
            trials=2048,
            batch_size=1024,
            seed=404,
        )
        records = run_ber(cfg).records
        assert [(r["snr_db"], r["bit_errors"]) for r in records] == list(want)
        assert all(r["packets"] == 2048 for r in records)


class TestEnergyAccounting:
    def test_every_message_transmits_unit_energy(self):
        p = ModulationParams(31)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = encode(rng.integers(0, 2, 31), p)
            assert np.sum(np.abs(x) ** 2) == pytest.approx(1.0, abs=1e-9)


# run_cfar_calibration detections pinned from the Exp(1) power draw: seed 404,
# window 4, guard 1, os_rank 6, pfa 1e-2, eight chunks of CFAR_CHUNK cells.
CFAR_CHUNK = 65_536
CHUNK_FRAMES = CFAR_CHUNK // 1024  # trials per chunk at the default frame_len
PINNED_CFAR_DETECTIONS = 5275
PINNED_CFAR_CHUNK_HITS = [666, 644, 654, 713, 642, 646, 621, 689]


def small_cfar_config(seed, chunks):
    cfar = CfarConfig(window=4, guard=1, os_rank=6, pfa=1e-2)
    return SimConfig(
        modulation=ModulationParams(31), cfar=cfar, seed=seed, trials=chunks * CHUNK_FRAMES
    )


class TestCfarCalibration:
    def test_records_match_the_pinned_detections_at_any_worker_count(self, monkeypatch):
        records = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MOCZSIM_THREADS", threads)
            records[threads] = run_cfar_calibration(small_cfar_config(404, 8)).records
        assert records["1"] == records["2"]
        assert records["1"][0]["detections"] == PINNED_CFAR_DETECTIONS

    def test_each_chunk_matches_its_pinned_hits(self, monkeypatch):
        # The record holds only the total, so pin each chunk's stream too.
        hits = []

        def spy(power, config):
            cells, thresholds = os_cfar(power, config)
            hits.append(cells.size)
            return cells, thresholds

        monkeypatch.setenv("MOCZSIM_THREADS", "1")
        monkeypatch.setattr(simulate, "os_cfar", spy)
        run_cfar_calibration(small_cfar_config(404, 8))
        assert hits == PINNED_CFAR_CHUNK_HITS

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
    def test_chunks_reuse_the_task_buffers(self, monkeypatch):
        # When each chunk drew into a fresh array and os_cfar built its scaled
        # and wrapped copies afresh, every chunk faulted ~225 pages in: ~3 400
        # for the 15 chunks beyond the first.  The task draws into one power
        # buffer, and glibc reuses the heap block of os_cfar's one wrapped
        # copy per call: 0-2 faults on Linux with glibc.
        import resource

        monkeypatch.setenv("MOCZSIM_THREADS", "1")
        cfg = SimConfig(modulation=ModulationParams(31), cfar=CfarConfig(pfa=1e-2), seed=5)

        def minor_faults(chunks: int) -> int:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_cfar_calibration(dataclasses.replace(cfg, trials=chunks * CHUNK_FRAMES))
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        minor_faults(1)
        assert minor_faults(16) - minor_faults(1) < 600

    def test_exponential_draw_detects_like_complex_gaussian_noise(self):
        chunks = 64
        cfg = small_cfar_config(21, chunks)
        rec = run_cfar_calibration(cfg).records[0]
        rng = np.random.default_rng(2021)
        oracle = sum(
            len(os_cfar(normal_chunk_power(rng, CFAR_CHUNK), cfg.cfar)[0]) for _ in range(chunks)
        )
        # Two-proportion z over the same number of cells on each side.
        n = rec["cells"]
        pooled = (rec["detections"] + oracle) / (2 * n)
        z = (rec["detections"] - oracle) / math.sqrt(2 * n * pooled * (1 - pooled))
        assert abs(z) < 4, (rec["detections"], oracle)

    def test_exponential_draw_matches_complex_gaussian_power(self, monkeypatch):
        drawn = []

        def spy(power, config):
            drawn.append(power.copy())
            return os_cfar(power, config)

        monkeypatch.setattr(simulate, "os_cfar", spy)
        run_cfar_calibration(small_cfar_config(22, 16))
        assert [p.shape for p in drawn] == [(CFAR_CHUNK,)] * 16
        power = np.concatenate(drawn)
        n = power.size
        oracle = normal_chunk_power(np.random.default_rng(2022), n)
        # Both are Exp(1): variance 1, and the density at the q-quantile is
        # 1 - q, so the sample q-quantile has variance q / ((1 - q) n).
        assert abs(power.mean() - oracle.mean()) < 5 * math.sqrt(2 / n)
        for q in (0.5, 0.99):
            se = math.sqrt(2 * q / ((1 - q) * n))
            assert abs(np.quantile(power, q) - np.quantile(oracle, q)) < 5 * se, q

    def test_quick_convergence_at_pfa_half(self):
        cfg = SimConfig(
            modulation=ModulationParams(31),
            cfar=CfarConfig(pfa=0.5),
            trials=98,
            frame_len=1024,
            seed=3,
        )
        rec = run_cfar_calibration(cfg).records[0]
        assert rec["pfa_empirical"] == pytest.approx(0.5, rel=0.1)
        assert rec["ci_low"] < 0.5 < rec["ci_high"]

    def test_doubling_alpha_strictly_lowers_the_rate(self):
        base_cfar = CfarConfig(pfa=0.05)
        stiff_cfar = CfarConfig(pfa=0.05, alpha=2 * base_cfar.alpha)
        cfg = SimConfig(
            modulation=ModulationParams(31), cfar=base_cfar, seed=4, trials=4 * CHUNK_FRAMES
        )
        cfg2 = dataclasses.replace(cfg, cfar=stiff_cfar)
        r1 = run_cfar_calibration(cfg).records[0]
        r2 = run_cfar_calibration(cfg2).records[0]
        assert r2["pfa_empirical"] < r1["pfa_empirical"]

    @pytest.mark.parametrize(
        "alpha,expect",
        [(1e6, "none"), (0.0, "all"), (1.0, "some")],
    )
    def test_wilson_interval_matches_closed_form(self, alpha, expect):
        cfg = SimConfig(
            modulation=ModulationParams(31),
            cfar=CfarConfig(window=4, guard=1, os_rank=6, pfa=1e-2, alpha=alpha),
            seed=6,
            trials=2 * CHUNK_FRAMES,
        )
        rec = run_cfar_calibration(cfg).records[0]
        n, k, z2 = rec["cells"], rec["detections"], 1.96**2
        assert n == 131_072
        if expect == "none":
            assert k == 0
            assert rec["ci_low"] == 0.0
            assert rec["ci_high"] == pytest.approx(z2 / (n + z2), rel=1e-12)
        elif expect == "all":
            assert k == n
            assert rec["ci_low"] == pytest.approx(n / (n + z2), rel=1e-12)
            assert rec["ci_high"] == 1.0
        else:
            p = k / n
            assert 0.05 < p < 0.95
            center = (k + z2 / 2) / (n + z2)
            half = math.sqrt(z2) / (n + z2) * math.sqrt(k * (n - k) / n + z2 / 4)
            assert rec["ci_low"] == pytest.approx(center - half, rel=1e-12)
            assert rec["ci_high"] == pytest.approx(center + half, rel=1e-12)
            assert rec["ci_low"] < p < rec["ci_high"]

    def test_insufficient_cells_raise(self):
        cfg = SimConfig(modulation=ModulationParams(31), trials=1, frame_len=1024)
        with pytest.raises(ValueError):
            run_cfar_calibration(cfg)


class TestRunRadar:
    def test_clean_target_on_grid_is_estimated_exactly(self):
        from moczsim import SPEED_OF_LIGHT

        range_on_grid = 40 * SPEED_OF_LIGHT / (2 * 100e6)  # 40 whole delay cells
        cfg = SimConfig(
            modulation=ModulationParams(127),
            link=LinkBudget(noise_psd=2e-27),  # 60 dB below nominal: near noiseless
            schedule=NARROW,
            trials=5,
            seed=21,
            targets=(TargetSpec(range_m=range_on_grid, velocity_mps=0.0, angle_deg=0.5),),
        )
        rec = run_radar(cfg).records[0]
        assert rec["detection_rate"] == 1.0
        assert rec["rmse_range_m"] < 1e-3
        assert rec["rmse_velocity_mps"] < 1e-3
        assert rec["rmse_angle_deg"] <= 0.5

    def test_target_at_the_frame_wrap_is_one_music_source(self, monkeypatch):
        # At 0.3 m the target sits in cell 0, so its CFAR hits run from the
        # last cells of the frame into the first ones.
        sources = []
        music = simulate.music_angles

        def counting_music(cov, rx_matrix, num_sources, segment):
            sources.append(num_sources)
            return music(cov, rx_matrix, num_sources, segment)

        monkeypatch.setattr(simulate, "music_angles", counting_music)
        cfg = dataclasses.replace(
            load_config(SCENE),
            trials=3,
            targets=(TargetSpec(range_m=60.0, velocity_mps=15.0, angle_deg=0.9, rcs_dbsm=60.0),),
            range_grid_m=(0.3,),
        )
        rec = run_radar(cfg).records[0]
        assert rec["detection_rate"] == 1.0
        assert sources == [1, 1, 1]

    def test_cpi_calls_the_names_the_benchmark_traces(self, monkeypatch):
        # bench/spans.py times delay refinement and the Doppler phases by
        # wrapping these two names of moczsim.simulate.
        calls = {"estimate_delay": 0, "correlation_value_at": 0}

        def counting(name):
            fn = getattr(simulate, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(simulate, name, counting(name))
        cfg = SimConfig(
            modulation=ModulationParams(127),
            link=LinkBudget(noise_psd=2e-27),
            schedule=NARROW,
            trials=1,
            seed=21,
            targets=(TargetSpec(range_m=60.0, velocity_mps=15.0, angle_deg=0.9),),
        )
        assert run_radar(cfg).records[0]["detection_rate"] == 1.0
        assert calls == {"estimate_delay": 1, "correlation_value_at": 1}

    def test_moderate_snr_single_target(self):
        cfg = SimConfig(
            modulation=ModulationParams(127),
            schedule=NARROW,
            trials=25,
            seed=22,
            targets=(TargetSpec(range_m=60.0, velocity_mps=15.0, angle_deg=0.9),),
        )
        rec = run_radar(cfg).records[0]
        assert rec["detection_rate"] == 1.0
        assert rec["rmse_range_m"] < 1.499  # within one range cell
        assert rec["rmse_velocity_mps"] < 1.0
        assert rec["rmse_angle_deg"] < 1.0

    def test_no_target_false_rate_tracks_pfa(self):
        cfg = SimConfig(
            modulation=ModulationParams(127),
            schedule=FrameSchedule(segment_deg=(-180 / 22, 180 / 22), frames_per_cpi=2),
            trials=300,
            seed=23,
            targets=(),
        )
        rec = run_radar(cfg).records[0]
        assert rec["detection_rate"] == 0.0
        assert 1e-4 / 3 <= rec["false_alarm_rate"] <= 3e-4

    def test_cells_within_two_of_the_true_cell_belong_to_the_target(self, monkeypatch):
        # Target at cell 1 of 1024. Planted CFAR hits: 1023 (two cells away
        # across the wrap), 3 (two away), 4 (three away, joins the cluster of
        # 3, whose strongest cell is 3) and 512. Cells 1023 and 3 are matched
        # clusters, the stronger one is the target's; 4 and 512 are false.
        # The planted powers are written into the power the CPI scores.
        cells = np.array([3, 4, 512, 1023])

        def planted(power, config):
            power[cells] = [5.0, 1.0, 2.0, 9.0]
            return cells, np.array([1.5, 0.5, 2.5, 3.5])

        monkeypatch.setattr(simulate, "os_cfar", planted)
        cfg = SimConfig(
            schedule=NARROW,
            trials=1,
            targets=(TargetSpec(range_m=RANGE_CELL_M, angle_deg=0.5),),
        )
        res = run_radar(cfg)
        assert res.records[0]["detection_rate"] == 1.0
        assert res.records[0]["false_alarm_rate"] == 2 / 1024
        [sample] = res.extra["sample_detections"][0]
        assert (sample["cell"], sample["statistic"], sample["threshold"]) == (1023, 9.0, 3.5)

    def test_range_sweep_produces_one_record_per_point(self):
        cfg = SimConfig(
            modulation=ModulationParams(127),
            schedule=NARROW,
            trials=4,
            seed=24,
            targets=(TargetSpec(range_m=50.0, angle_deg=0.5),),
            range_grid_m=(40.0, 80.0),
        )
        res = run_radar(cfg)
        assert [r["range_m"] for r in res.records] == [40.0, 80.0]
        assert all(r["detection_rate"] == 1.0 for r in res.records)

    def test_radar_reproducibility(self):
        cfg = SimConfig(
            modulation=ModulationParams(127),
            schedule=NARROW,
            trials=6,
            seed=25,
            targets=(TargetSpec(range_m=55.0, velocity_mps=10.0, angle_deg=0.5),),
        )
        assert run_radar(cfg).records == run_radar(cfg).records


class TestRadarEdges:
    def edge_config(self, range_m, **overrides):
        base = dict(
            modulation=ModulationParams(127),
            link=LinkBudget(noise_psd=2e-27),  # near noiseless
            schedule=NARROW,
            trials=5,
            seed=26,
            targets=(TargetSpec(range_m=range_m, angle_deg=0.5, rcs_dbsm=60.0),),
        )
        base.update(overrides)
        return SimConfig(**base)

    def test_target_at_frame_edge_scores_range_modulo_the_frame(self):
        # Cell 1023.7 of 1024: the peak can land on cell 0, one frame away.
        rec = run_radar(self.edge_config(1023.7 * RANGE_CELL_M)).records[0]
        assert rec["detection_rate"] == 1.0
        assert rec["rmse_range_m"] < RANGE_CELL_M

    def test_target_beyond_the_frame_is_rejected(self):
        with pytest.raises(ValueError, match=re.escape("targets[0].range_m") + ".*frame"):
            self.edge_config(1024.0 * RANGE_CELL_M)

    def test_range_grid_point_beyond_the_frame_is_rejected(self):
        with pytest.raises(ValueError, match=re.escape("range_grid_m[1]") + ".*frame"):
            self.edge_config(50.0, range_grid_m=(50.0, 1100.5 * RANGE_CELL_M))

    def test_frame_check_reads_the_frame_clock(self):
        # 1000 / 80 MHz is 1.25e-05 s, while 1000 * (1 / 80 MHz) rounds to
        # 1.2499999999999999e-05 s: a round trip of exactly the smaller value
        # lies inside the frame the radar's frame clock runs.
        cfg = SimConfig(
            frame_len=1000,
            link=LinkBudget(bandwidth_hz=80e6),
            trials=1,
            targets=(TargetSpec(range_m=1873.7028624999998),),
        )
        assert run_radar(cfg).records[0]["trials"] == 1
        assert 2.0 * cfg.targets[0].range_m / SPEED_OF_LIGHT < cfg.frame_s == 1.25e-05

    def test_two_targets_are_scored_and_sampled_in_target_order(self):
        # The 90 m target is listed second and sits in cell 60, after the
        # 60 m target's cell 40.
        cfg = dataclasses.replace(
            load_config(SCENE),
            trials=6,
            targets=(
                TargetSpec(range_m=60.0, velocity_mps=15.0, angle_deg=0.9, rcs_dbsm=30.0),
                TargetSpec(range_m=90.0, velocity_mps=-5.0, angle_deg=0.5, rcs_dbsm=30.0),
            ),
            range_grid_m=(),
        )
        res = run_radar(cfg)
        assert res.records[0]["detection_rate"] == 1.0
        assert [s["cell"] for s in res.extra["sample_detections"][0]] == [40, 60]

    def test_one_frame_cpi_has_no_velocity_error(self):
        scene = load_config(SCENE)
        cfg = dataclasses.replace(
            scene, trials=4, schedule=dataclasses.replace(scene.schedule, frames_per_cpi=1)
        )
        rec = run_radar(cfg).records[0]
        assert math.isnan(rec["rmse_velocity_mps"])
        assert math.isfinite(rec["rmse_range_m"]) and math.isfinite(rec["rmse_angle_deg"])

    def test_one_rf_chain_has_no_angle_error(self):
        # MUSIC keeps one noise dimension, so with one RF chain it has no source.
        cfg = dataclasses.replace(load_config(SCENE), trials=4, array=ArrayConfig(64, 1))
        rec = run_radar(cfg).records[0]
        assert math.isnan(rec["rmse_angle_deg"])
        assert math.isfinite(rec["rmse_range_m"]) and math.isfinite(rec["rmse_velocity_mps"])

    @pytest.mark.parametrize(
        "n_rf, frames, ranges",
        [(31, 1, (30.0,)), (30, 2, (30.0,)), (28, 2, (30.0, 15.0))],
        ids=["frame-0-bound", "later-frames-bound", "later-frames-bound-two-targets"],
    )
    def test_configs_at_the_receive_draw_bounds_run(self, n_rf, frames, ranges):
        # Each config sits on a bound that the BAD_CONFIGS entries step past,
        # and every target is detected, so the later frames' Wishart gets
        # exactly n_rf degrees of freedom when frames >= 2.
        cfg = SimConfig(
            modulation=ModulationParams(31),
            frame_len=32,
            array=ArrayConfig(64, n_rf),
            schedule=FrameSchedule(frames_per_cpi=frames),
            trials=2,
            targets=tuple(TargetSpec(range_m=r) for r in ranges),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg
        rec = run_radar(cfg).records[0]
        assert rec["detection_rate"] == 1.0


# run_radar on configs/scene.json at 6 trials (config seed 1), recorded from
# the frame-by-frame CPI loop before the CPI became one batched block, and
# reproduced by the full-block receive of tests/radar_oracle.py:
# (range_m, detection_rate, rmse_range_m, rmse_velocity_mps, rmse_angle_deg,
# false_alarm_rate).
SCENE_RECORDS = (
    (30.0, 1.0, 0.014155840436244458, 0.01849501044261908, 0.06982052807228044,
     0.001953125),
    (60.0, 1.0, 0.025991421882778615, 0.13774346882419744, 0.07250146832549348,
     0.0011393229166666667),
    (120.0, 0.6666666666666666, 0.16851556629926104, 0.5488107154702399,
     0.11572478291626337, 0.0),
    (200.0, 0.0, math.nan, math.nan, math.nan, 0.0003255208333333333),
)

# The same run with the CPI's reduced receive draw (channel.receive_radar),
# which draws frame 0's combined row as the full block does and frames
# 1..F-1 as their correlation values and covariance share after detection,
# on factors of their spans' Grams formed from the codewords.  Detection,
# false alarms and range come from frame 0 alone.
REDUCED_SCENE_RECORDS = (
    (30.0, 1.0, 0.005238914835901689, 0.016746706943355366, 0.07036916083047869,
     0.0021158854166666665),
    (60.0, 1.0, 0.020053577793625363, 0.07150422590878378, 0.06866324511174025,
     0.0011393229166666667),
    (120.0, 0.6666666666666666, 0.16766086519312048, 0.40982679421517715,
     0.2707577595780907, 0.0),
    (200.0, 0.0, math.nan, math.nan, math.nan, 0.00016276041666666666),
)


class TestRadarRegression:
    def scene(self):
        return dataclasses.replace(load_config(SCENE), trials=6)

    def assert_records(self, records, pinned):
        assert len(records) == len(pinned)
        for rec, want in zip(records, pinned):
            r_m, rate, rmse_r, rmse_v, rmse_a, fa = want
            assert rec["range_m"] == r_m
            assert rec["detection_rate"] == rate
            assert rec["false_alarm_rate"] == fa
            assert rec["trials"] == 6
            for key, value in (
                ("rmse_range_m", rmse_r),
                ("rmse_velocity_mps", rmse_v),
                ("rmse_angle_deg", rmse_a),
            ):
                if math.isnan(value):
                    assert math.isnan(rec[key])
                else:
                    assert rec[key] == pytest.approx(value, rel=1e-9, abs=0)

    def test_scene_records_match_the_frame_by_frame_reference(self, monkeypatch):
        monkeypatch.setattr(simulate, "receive_radar", radar_oracle.receive_radar)
        self.assert_records(run_radar(self.scene()).records, SCENE_RECORDS)

    def test_scene_records_match_the_reduced_draw_pin(self):
        self.assert_records(run_radar(self.scene()).records, REDUCED_SCENE_RECORDS)

    def test_worker_count_does_not_change_radar_output(self, monkeypatch):
        cfg = dataclasses.replace(self.scene(), trials=3)
        monkeypatch.setenv("MOCZSIM_THREADS", "1")
        base = run_radar(cfg)
        monkeypatch.setenv("MOCZSIM_THREADS", "2")
        assert run_radar(cfg).to_json() == base.to_json()


class TestWorkers:
    def test_default_is_one_worker(self, monkeypatch):
        monkeypatch.delenv("MOCZSIM_THREADS", raising=False)
        assert _max_workers() == 1

    def test_count_is_capped_at_the_cpu_count(self, monkeypatch):
        monkeypatch.setenv("MOCZSIM_THREADS", "64")
        assert _max_workers() == min(64, os.cpu_count())

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", ""])
    def test_invalid_values_are_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("MOCZSIM_THREADS", raw)
        with pytest.raises(ValueError, match="MOCZSIM_THREADS"):
            _max_workers()


class TestConfigRoundTrip:
    def test_dict_round_trip_preserves_config(self):
        cfg = SimConfig(
            modulation=ModulationParams(127, 0.5),
            array=ArrayConfig(64, 4),
            link=LinkBudget(),
            schedule=NARROW,
            channel_model="rician_selective",
            snr_grid_db=(1.0, 2.0),
            trials=77,
            seed=9,
            targets=(TargetSpec(range_m=50.0, velocity_mps=5.0, angle_deg=1.0),),
        )
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    @pytest.mark.parametrize(
        "doc, given",
        [
            ({}, {}),
            ({"frame_len": 2048}, {"frame_len": 2048}),
            ({"link": {"w": 50e6}}, {"link": LinkBudget(bandwidth_hz=50e6)}),
            ({"modulation": {"lambda": 0.3}}, {"modulation": ModulationParams(127, 0.3)}),
        ],
        ids=["empty", "frame_len", "link.w", "modulation.lambda"],
    )
    def test_empty_document_gives_the_defaults(self, doc, given):
        # Every absent key, in a document empty or not, takes the default
        # that SimConfig itself has.
        assert config_from_dict(doc) == SimConfig(**given)

    @pytest.mark.parametrize("segment_deg", [[-30.0, 30.0], [-89.3, 12.7]])
    def test_segment_echo_is_the_segment_as_written(self, segment_deg):
        doc = {"schedule": {"segment_deg": segment_deg}}
        echo = config_to_dict(config_from_dict(doc))
        assert echo["schedule"]["segment_deg"] == segment_deg

    def test_derived_defaults_follow_their_inputs(self):
        cfg = config_from_dict({"cfar": {"pfa": 0.5}})
        assert cfg.cfar.alpha == CfarConfig(pfa=0.5).alpha

    @pytest.mark.parametrize("doc, key", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_input_raises_naming_the_key(self, doc, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "path",
        [*sorted(ROOT.glob("configs/*.json")), *sorted(ROOT.glob("bench/configs/*.json"))],
        ids=lambda p: str(p.relative_to(ROOT)),
    )
    def test_shipped_configs_load(self, path):
        cfg = load_config(path)
        assert isinstance(cfg, SimConfig)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_list_fields_dump_as_their_tuple_form(self):
        given = dict(snr_grid_db=[1.0, 2.0], targets=[TargetSpec(range_m=50.0)], range_grid_m=[40.0])
        as_tuples = {name: tuple(value) for name, value in given.items()}
        assert json.dumps(config_to_dict(SimConfig(**given))) == json.dumps(
            config_to_dict(SimConfig(**as_tuples))
        )

    def test_readme_schema_block_shows_the_defaults(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads(re.sub(r"//.*", "", block))
        config_from_dict(doc)
        defaults = config_to_dict(config_from_dict({}))
        assert set(doc) == set(defaults)
        for key, value in doc.items():
            if key == "targets":
                continue
            assert value == defaults[key], key

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            FrameSchedule(segment_deg=(30.0, 5.0))
        with pytest.raises(ValueError):
            FrameSchedule(segment_deg=(-20.0, 120.0))
        with pytest.raises(ValueError):
            FrameSchedule(segment_deg=(-5.0, 5.0), frames_per_cpi=0)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(modulation=ModulationParams(31), channel_model="tdl_x")
        with pytest.raises(ValueError):
            SimConfig(modulation=ModulationParams(31), trials=0)
        with pytest.raises(ValueError):
            SimConfig(modulation=ModulationParams(31), snr_grid_db=())
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=re.escape("snr_grid_db[1]")):
                SimConfig(modulation=ModulationParams(31), snr_grid_db=(6.0, bad))
        with pytest.raises(ValueError):
            SimConfig(modulation=ModulationParams(511), frame_len=256)


class TestOutputFiles:
    def test_atomic_write_and_result_files(self, tmp_path):
        atomic_write_text(tmp_path / "sub" / "a.txt", "hello\n")
        assert (tmp_path / "sub" / "a.txt").read_text() == "hello\n"

        cfg = small_ber_config(trials=500, snr_grid_db=(5.0,))
        result = run_ber(cfg)
        csv_path, json_path = write_result(result, tmp_path, "ber", cfg)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "snr_db,ber,packets,bit_errors,bpsk_ref"
        assert len(lines) == 2
        doc = json.loads(json_path.read_text())
        assert doc["kind"] == "ber"
        assert doc["config"]["modulation"]["k"] == 31
        assert len(doc["records"]) == 1

        cfar = run_cfar_calibration(
            small_ber_config(cfar=CfarConfig(pfa=1e-2), trials=CHUNK_FRAMES)
        )
        csv_path, _ = write_result(cfar, tmp_path, "cfar")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "pfa_target,pfa_empirical,ci_low,ci_high,cells,detections,alpha"
        assert len(lines) == 2


def bench_spans(monkeypatch):
    """bench/spans.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_traced_names_resolve(monkeypatch):
    # bench/run.py --trace 1 wraps these module attributes by name.  A renamed
    # or removed one does not break the traced run: spans.traced prints
    # "not traced" and silently drops that layer from the trace.
    names = bench_spans(monkeypatch).wrapped_names()
    assert names
    missing = [(m, a) for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_traced_runs_equal_plain_runs(monkeypatch):
    # The CI's traced benchmark step: every wrapped layer that a run calls
    # must return what its measure function reads, and tracing must not
    # change the output.
    spans = bench_spans(monkeypatch)
    radar_cfg = dataclasses.replace(load_config(SCENE), trials=1)
    ber_cfg = small_ber_config(trials=16, batch_size=16)

    def both():
        return run_radar(radar_cfg).to_json(), run_ber(ber_cfg).to_json()

    plain = both()
    recorder = spans.Recorder()
    with spans.traced(recorder):
        traced = both()
    assert traced == plain
    # run_ber draws its noise and decides from its zero-grid values itself,
    # so neither a noise nor a decoder span is left in a BER run.
    assert {s.name for s in recorder.spans} >= {
        "huffman.encode_batch", "radar.os_cfar", "radar.music_angles"
    }
