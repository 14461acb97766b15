"""The four benchmark workloads: configuration, one timed call, output checks.

Every workload drives a public entry point of ``moczsim.simulate``
(``load_config`` then ``run_ber``, ``run_radar`` or ``run_cfar_calibration``)
the way the CLI does.  A call is one run of the entry point with a seed
derived from the benchmark seed and the call index, so the same benchmark
seed always produces the same inputs, call for call.

The checks hold for any seed: they are the acceptance criteria of the
package, not values recorded from one run.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from moczsim import SPEED_OF_LIGHT, radar, simulate  # noqa: E402

HERE = Path(__file__).resolve().parent



@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ber", "radar" or "cfar"
    config: Path
    trials: int  # per call; sets the work one timed call does
    threads: int  # MOCZSIM_THREADS
    rate_metric: str


WORKLOADS = {
    w.name: w
    for w in (
        # 4 SNR points x one 16384-packet batch: about 3 s per call.
        Workload("ber_awgn_k127", "ber", HERE / "configs" / "ber_awgn_k127.json",
                 16384, 1, "packets_per_s"),
        # 2 SNR points x two 4096-packet batches, one per worker.
        Workload("ber_rician_k511", "ber", HERE / "configs" / "ber_rician_k511.json",
                 8192, 2, "packets_per_s"),
        # 25 trials x 4 ranges = 100 CPIs per call.
        Workload("radar_scene", "radar", ROOT / "configs" / "scene.json",
                 25, 1, "cpi_per_s"),
        # 1024 frames of 1024 cells = 16 chunks of 65536 cells per call.
        Workload("cfar_calibrate", "cfar", HERE / "configs" / "cfar_calibrate.json",
                 1024, 1, "cells_per_s"),
    )
}

# Ranges of configs/scene.json at which every CPI must detect the target.
RADAR_MUST_DETECT_M = (30.0, 60.0)
AWGN_GAP_POINT_DB = 10.79  # coherent BPSK at 1e-3 plus the 4 dB allowed gap


@dataclass
class Call:
    """Outcome of one timed call of the entry point."""

    index: int
    seed: int
    wall_s: float
    work: int
    records: list
    failed: int  # records that raised or failed a check
    problems: list


def call_seed(seed: int, index: int) -> int:
    """Seed of call ``index``: a pure function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Prepared:
    """A workload whose configuration is loaded and whose lazy set-up is done."""

    def __init__(self, workload: Workload, trials: int | None = None):
        self.workload = workload
        cfg = simulate.load_config(workload.config)
        self.cfg = dataclasses.replace(cfg, trials=trials or workload.trials)
        self._warm_up()

    @property
    def records_per_call(self) -> int:
        if self.workload.kind == "ber":
            return len(self.cfg.snr_grid_db)
        if self.workload.kind == "radar":
            return len(self.cfg.range_grid_m)
        return 1

    def entry(self, cfg):
        kind = self.workload.kind
        if kind == "ber":
            return simulate.run_ber(cfg)
        if kind == "radar":
            return simulate.run_radar(cfg)
        return simulate.run_cfar_calibration(cfg)

    def _warm_up(self) -> None:
        # First calls build FFT plans and touch every code path once; a
        # per-parameter cache added later is filled here too, so set-up
        # time shows it and the timed calls do not.
        cfg = self.cfg
        kind = self.workload.kind
        if kind == "ber":
            simulate.run_ber(dataclasses.replace(cfg, trials=16, batch_size=16))
        elif kind == "radar":
            simulate.run_radar(dataclasses.replace(cfg, trials=1))
        else:
            # The entry point needs at least 100/pfa cells; one small frame
            # exercises the same detector.
            radar.os_cfar(np.ones(4 * cfg.cfar.window), cfg.cfar)

    def work_of(self, cfg, records) -> int:
        if self.workload.kind == "cfar":
            return int(records[0]["cells"])
        return cfg.trials * self.records_per_call

    def call(self, seed: int, index: int, runner=None) -> Call:
        """Run and check call ``index``; ``runner(entry, cfg)`` wraps the entry point."""
        cfg = dataclasses.replace(self.cfg, seed=call_seed(seed, index))
        start = time.perf_counter()
        try:
            result = runner(self.entry, cfg) if runner else self.entry(cfg)
        except Exception:  # a failing entry point is counted, not fatal
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            n = self.records_per_call
            return Call(index, cfg.seed, wall, 0, [], n, ["entry point raised"])
        wall = time.perf_counter() - start
        records = result.records
        bad, problems = check(self.workload.kind, cfg, records)
        failed = len(bad) + max(0, self.records_per_call - len(records))
        return Call(index, cfg.seed, wall, self.work_of(cfg, records), records,
                    failed, problems)


def check(kind: str, cfg, records: list) -> tuple[set, list]:
    """Indices of records that fail the output checks, and why."""
    if kind == "ber":
        return _check_ber(cfg, records)
    if kind == "radar":
        return _check_radar(cfg, records)
    return _check_cfar(cfg, records)


def _fail(bad: set, problems: list, i: int, text: str) -> None:
    bad.add(i)
    problems.append(f"record {i}: {text}")


def _check_ber(cfg, records):
    bad, problems = set(), []
    if len(records) != len(cfg.snr_grid_db):
        problems.append(f"{len(records)} records for {len(cfg.snr_grid_db)} SNR points")
    prev = None
    for i, rec in enumerate(records):
        ber = rec["ber"]
        if not (math.isfinite(ber) and 0.0 <= ber <= 0.5):
            _fail(bad, problems, i, f"BER {ber!r} outside [0, 0.5]")
        if rec["packets"] != cfg.trials:
            _fail(bad, problems, i, f"{rec['packets']} packets, expected {cfg.trials}")
        if prev is not None and ber > prev:
            _fail(bad, problems, i, f"BER rises from {prev!r} to {ber!r}")
        prev = ber
        if (cfg.channel_model == "awgn" and cfg.modulation.num_bits == 127
                and abs(rec["snr_db"] - AWGN_GAP_POINT_DB) < 1e-9 and ber > 1e-3):
            _fail(bad, problems, i, f"BER {ber!r} > 1e-3 at the gap point")
    return bad, problems


def _check_radar(cfg, records):
    bad, problems = set(), []
    range_cell_m = SPEED_OF_LIGHT / (2.0 * cfg.link.bandwidth_hz)
    if len(records) != len(cfg.range_grid_m):
        problems.append(f"{len(records)} records for {len(cfg.range_grid_m)} ranges")
    for i, rec in enumerate(records):
        rate = rec["detection_rate"]
        if not 0.0 <= rate <= 1.0:
            _fail(bad, problems, i, f"detection rate {rate!r}")
        if rec["range_m"] in RADAR_MUST_DETECT_M and rate != 1.0:
            _fail(bad, problems, i, f"detection rate {rate!r} at {rec['range_m']} m")
        # Where detection is reliable.  Far out, a noise crossing within two
        # cells of the truth is scored as a detection with an error of up to
        # two cells, so a single one can put the RMSE above a cell.
        if rate == 1.0 and not rec["rmse_range_m"] <= range_cell_m:
            _fail(bad, problems, i, f"range RMSE {rec['rmse_range_m']!r} m > one cell")
        # A detected target also crosses the threshold at the two end
        # side-peaks of the waveform's autocorrelation (lags +-K), which the
        # sweep scores as false alarms: allow those two cells per detection.
        max_fa = 10.0 * cfg.cfar.pfa + 2.0 * rate * len(cfg.targets) / cfg.frame_len
        if not 0.0 <= rec["false_alarm_rate"] <= max_fa:
            _fail(bad, problems, i, f"false-alarm rate {rec['false_alarm_rate']!r}")
        if rec["trials"] != cfg.trials:
            _fail(bad, problems, i, f"{rec['trials']} trials, expected {cfg.trials}")
    return bad, problems


def _check_cfar(cfg, records):
    bad, problems = set(), []
    for i, rec in enumerate(records):
        if not 0.3e-4 <= rec["pfa_empirical"] <= 3e-4:
            _fail(bad, problems, i, f"empirical pfa {rec['pfa_empirical']!r}")
        if rec["cells"] < cfg.trials * cfg.frame_len:
            _fail(bad, problems, i, f"{rec['cells']} cells tested")
    return bad, problems
