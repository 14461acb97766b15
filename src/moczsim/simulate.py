"""End-to-end Monte Carlo experiments: BER sweeps, radar runs, CFAR calibration.

Every run is a pure function of its configuration, including the seed: each
batch or trial derives its own random stream from (seed, purpose, index), and
results are reduced by summation, so worker count and batching never change
the output.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Beamformer,
    LinkBudget,
    RadarTarget,
    apply_radar_channel,
    awgn,
    make_beamformers,
    steering,
)
from .dizet import dizet_decode_batch
from .huffman import ModulationParams, encode_batch
from .radar import (
    CfarConfig,
    EstimateReport,
    cluster_detections,
    correlation_value_from_spectrum,
    cross_spectrum,
    detection_record,
    estimate_delay_from_spectrum,
    estimate_doppler,
    music_angles,
    os_cfar,
    sample_covariance,
)

# The radar CPI reads the cross-spectrum and no longer calls these three, but
# bench/spans.py looks up and wraps them as names of this module, so they stay.
from .radar import correlation_value_at, cross_correlate, estimate_delay  # noqa: F401

__all__ = [
    "TargetSpec",
    "FrameSchedule",
    "SimConfig",
    "MonteCarloResult",
    "run_ber",
    "run_radar",
    "run_cfar_calibration",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "write_result",
    "atomic_write_text",
]

CHANNEL_MODELS = ("awgn", "rayleigh_flat", "rician_selective")

# Stand-in frequency-selective profile: line-of-sight tap plus three delayed
# taps at whole sample periods, 3 dB per tap decay, every tap Rician.
_SELECTIVE_TAP_POWERS = np.array([1.0, 0.5, 0.25, 0.125])
_SELECTIVE_TAP_POWERS = _SELECTIVE_TAP_POWERS / _SELECTIVE_TAP_POWERS.sum()
_RICIAN_FACTOR = 10.0

BER_FIELDS = ("snr_db", "ber", "packets", "bit_errors", "bpsk_ref")
RADAR_FIELDS = (
    "range_m",
    "detection_rate",
    "rmse_range_m",
    "rmse_velocity_mps",
    "rmse_angle_deg",
    "false_alarm_rate",
    "trials",
)
CFAR_FIELDS = (
    "pfa_target",
    "pfa_empirical",
    "ci_low",
    "ci_high",
    "cells",
    "detections",
    "alpha",
)


@dataclass(frozen=True)
class TargetSpec:
    """Scenario-level target description in physical units."""

    range_m: float
    velocity_mps: float = 0.0
    angle_deg: float = 0.0
    rcs_dbsm: float = 10.0


@dataclass(frozen=True)
class FrameSchedule:
    """Beam segments and frame timing of one spatio-temporal sweep."""

    segments: tuple[tuple[float, float], ...]  # radians, non-overlapping
    frames_per_cpi: int = 16
    t_cpi: float = 16 * 1024e-8

    def __post_init__(self):
        if self.frames_per_cpi < 1:
            raise ValueError("frames_per_cpi must be >= 1")
        if self.t_cpi <= 0:
            raise ValueError("t_cpi must be positive")
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        prev_hi = None
        for lo, hi in sorted(self.segments):
            if not (-np.pi / 2 <= lo < hi <= np.pi / 2):
                raise ValueError("segments must be ordered intervals within [-pi/2, pi/2]")
            if prev_hi is not None and lo < prev_hi:
                raise ValueError("segments must not overlap")
            prev_hi = hi

    @property
    def frame_period(self) -> float:
        return self.t_cpi / self.frames_per_cpi


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation campaign."""

    modulation: ModulationParams = ModulationParams(127)
    array: ArrayConfig = ArrayConfig()
    link: LinkBudget = LinkBudget()
    schedule: FrameSchedule = FrameSchedule(segments=((-np.pi / 6, np.pi / 6),))
    channel_model: str = "awgn"
    snr_grid_db: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    trials: int = 10_000
    seed: int = 0
    frame_len: int = 1024
    batch_size: int = 16_384
    cfar: CfarConfig = CfarConfig()
    targets: tuple[TargetSpec, ...] = ()
    range_grid_m: tuple[float, ...] = ()
    angle_grid_deg: float = 0.5

    def __post_init__(self):
        if self.channel_model not in CHANNEL_MODELS:
            raise ValueError(f"channel_model must be one of {CHANNEL_MODELS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be non-empty")
        for i, snr_db in enumerate(self.snr_grid_db):
            if not math.isfinite(snr_db):
                raise ValueError(f"snr_grid_db[{i}] must be a finite number, got {snr_db}")
        if self.frame_len < self.modulation.seq_len:
            raise ValueError("frame_len must cover the transmit sequence")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.range_grid_m and len(self.targets) != 1:
            raise ValueError("range_grid_m sweeps require exactly one target")
        if self.angle_grid_deg <= 0:
            raise ValueError("angle_grid_deg must be positive")


@dataclass
class MonteCarloResult:
    """Sweep records with fixed field order for regression-diffable output."""

    kind: str
    records: list[dict]
    extra: dict = field(default_factory=dict)

    _FIELDS = {"ber": BER_FIELDS, "radar": RADAR_FIELDS, "cfar": CFAR_FIELDS}

    @property
    def fields(self) -> tuple[str, ...]:
        return self._FIELDS[self.kind]

    def to_csv(self) -> str:
        lines = [",".join(self.fields)]
        for rec in self.records:
            lines.append(",".join(_format_cell(rec[f]) for f in self.fields))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {"kind": self.kind, "records": self.records}
        doc.update(self.extra)
        return json.dumps(doc, indent=2)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _max_workers() -> int:
    """Worker threads from MOCZSIM_THREADS (default 1), capped at the CPU count."""
    raw = os.environ.get("MOCZSIM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"MOCZSIM_THREADS must be a positive integer, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def _parallel_map(fn, items) -> list:
    """``[fn(i) for i in items]``, fanned out over the configured worker threads."""
    workers = _max_workers()
    if workers == 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _batch_sizes(total: int, batch: int) -> list[int]:
    full, rest = divmod(total, batch)
    return [batch] * full + ([rest] if rest else [])


def _fade_batch(tx: np.ndarray, model: str, rng: np.random.Generator) -> np.ndarray:
    """Apply the selected fading model to a (B, K+1) batch of packets.

    Returns shape (B, K+1), or (B, K+4) for ``rician_selective``, whose
    4-tap channel is a full linear convolution of each packet with its own
    taps.
    """
    if model == "awgn":
        return tx
    b = tx.shape[0]
    if model == "rayleigh_flat":
        h = (rng.standard_normal(b) + 1j * rng.standard_normal(b)) / math.sqrt(2.0)
        return tx * h[:, None]
    if model == "rician_selective":
        n_taps = _SELECTIVE_TAP_POWERS.size
        psi = rng.uniform(0.0, 2.0 * np.pi, (b, n_taps))
        los = math.sqrt(_RICIAN_FACTOR / (_RICIAN_FACTOR + 1.0)) * np.exp(1j * psi)
        diffuse = math.sqrt(1.0 / (2.0 * (_RICIAN_FACTOR + 1.0))) * (
            rng.standard_normal((b, n_taps)) + 1j * rng.standard_normal((b, n_taps))
        )
        taps = np.sqrt(_SELECTIVE_TAP_POWERS)[None, :] * (los + diffuse)
        # Direct convolution: output sample n of row b is
        # sum_j taps[b, j] * tx[b, n - j], read from n_taps-wide windows of
        # the zero-padded rows against the reversed taps.
        padded = np.zeros((b, tx.shape[1] + 2 * (n_taps - 1)), dtype=complex)
        padded[:, n_taps - 1 : n_taps - 1 + tx.shape[1]] = tx
        windows = sliding_window_view(padded, n_taps, axis=1)
        return np.einsum("bnj,bj->bn", windows, taps[:, ::-1])
    raise ValueError(f"unknown channel model {model!r}")


def run_ber(cfg: SimConfig) -> MonteCarloResult:
    """Bit error rate sweep of the noncoherent decoder over cfg.snr_grid_db.

    SNR is Eb/N0 with Eb = 1/K (unit packet energy over K payload bits), so
    the per-sample complex noise variance at SNR s dB is 10^(-s/10) / K.  The
    coherent BPSK reference Q(sqrt(2 Eb/N0)) is emitted alongside each point.
    """
    params = cfg.modulation
    k = params.num_bits
    sizes = _batch_sizes(cfg.trials, cfg.batch_size)

    def point(point_idx: int, snr_db: float) -> dict:
        noise_var = 10.0 ** (-snr_db / 10.0) / k

        def batch_errors(batch_idx: int) -> int:
            rng = _rng_for(cfg.seed, 1, point_idx, batch_idx)
            msgs = rng.integers(0, 2, (sizes[batch_idx], k), dtype=np.int8)
            tx = encode_batch(msgs, params)
            rx = awgn(_fade_batch(tx, cfg.channel_model, rng), noise_var, rng)
            bits, _ = dizet_decode_batch(rx, params)
            return int(np.count_nonzero(bits != msgs))

        errors = sum(_parallel_map(batch_errors, range(len(sizes))))
        snr_lin = 10.0 ** (snr_db / 10.0)
        return {
            "snr_db": float(snr_db),
            "ber": errors / (cfg.trials * k),
            "packets": cfg.trials,
            "bit_errors": errors,
            "bpsk_ref": 0.5 * math.erfc(math.sqrt(snr_lin)),
        }

    records = [point(i, s) for i, s in enumerate(cfg.snr_grid_db)]
    return MonteCarloResult(kind="ber", records=records)


def _segment_for(schedule: FrameSchedule, angle_rad: float) -> tuple[float, float]:
    for lo, hi in schedule.segments:
        if lo <= angle_rad <= hi:
            return lo, hi
    # fall back to the nearest segment
    return min(
        schedule.segments,
        key=lambda seg: min(abs(angle_rad - seg[0]), abs(angle_rad - seg[1])),
    )


def _radar_trial(
    cfg: SimConfig,
    specs: tuple[TargetSpec, ...],
    bf: Beamformer,
    segment: tuple[float, float],
    sweep_idx: int,
    trial: int,
) -> dict:
    """One coherent processing interval: frames, detection, and estimation."""
    rng = _rng_for(cfg.seed, 3, sweep_idx, trial)
    params = cfg.modulation
    link = cfg.link
    t_sample = link.sample_period
    n_frames = cfg.schedule.frames_per_cpi
    frame_period = cfg.schedule.frame_period

    targets = [
        RadarTarget.from_geometry(
            link,
            spec.range_m,
            spec.velocity_mps,
            spec.angle_deg,
            spec.rcs_dbsm,
            phase_rad=rng.uniform(0.0, 2.0 * np.pi),
        )
        for spec in specs
    ]
    # EIRP = element power * array gain; scale so the packet's mean sample
    # power at the elements matches the budget.
    amp = math.sqrt(link.eirp_watts / cfg.array.num_antennas * params.seq_len)
    combiner = bf.rx_matrix.conj().T @ steering(
        (segment[0] + segment[1]) / 2.0, cfg.array.num_antennas
    )
    combiner = combiner / np.linalg.norm(combiner)

    # The whole CPI is one (F, N) block: (F, N_rf, N) at the RF chains, one
    # noise block per frame in frame order, then the (F, N) cross-spectrum.
    # Only frame 0's profile goes to the CFAR; delay refinement and the
    # Doppler phases read the spectrum itself.
    msgs = rng.integers(0, 2, (n_frames, params.num_bits), dtype=np.int8)
    frames_tx = encode_batch(msgs, params)
    frame_times = np.arange(n_frames) * frame_period
    rx = apply_radar_channel(
        amp * frames_tx,
        targets,
        bf,
        t_sample,
        frame_len=cfg.frame_len,
        start_time=frame_times,
    )
    rx = awgn(rx, link.noise_variance, rng, frame_axes=1)
    cov = sample_covariance(rx)
    # A (1, N_rf) row, not a vector: matmul then makes one BLAS call per frame.
    combined = (combiner.conj()[None, :] @ rx)[..., 0, :]
    spectra = cross_spectrum(frames_tx, combined)

    detections = os_cfar(np.fft.ifft(spectra[0]), cfg.cfar)
    clusters = cluster_detections(detections, cfg.frame_len)
    true_cells = [round(tg.delay_s / t_sample) % cfg.frame_len for tg in targets]

    def near_truth(cell: int) -> bool:
        return any(
            min(abs(cell - tc), cfg.frame_len - abs(cell - tc)) <= 2 for tc in true_cells
        )

    false_cells = sum(not near_truth(d.cell) for d in detections)
    out = {
        "false_cells": false_cells,
        "cells": cfg.frame_len,
        "per_target": [],
    }

    matched = [c for c in clusters if near_truth(c.cell)]
    num_sources = min(len(matched), cfg.array.num_rf_chains - 1)
    angles = (
        music_angles(cov, bf.rx_matrix, num_sources, cfg.angle_grid_deg, segment)
        if num_sources
        else np.empty(0)
    )

    unambiguous_m = SPEED_OF_LIGHT * cfg.frame_len * t_sample / 2.0
    for tg in targets:
        true_cell = round(tg.delay_s / t_sample) % cfg.frame_len
        best = None
        for c in matched:
            gap = min(abs(c.cell - true_cell), cfg.frame_len - abs(c.cell - true_cell))
            if gap <= 2 and (best is None or c.statistic > best.statistic):
                best = c
        if best is None:
            out["per_target"].append(None)
            continue
        delay_hat = estimate_delay_from_spectrum(spectra[0], best.cell, t_sample, refine=64)
        if n_frames >= 2:
            phases = np.angle(correlation_value_from_spectrum(spectra, delay_hat / t_sample))
            doppler_hat = estimate_doppler(phases, frame_times)
        else:
            doppler_hat = float("nan")
        angle_hat = (
            float(angles[np.argmin(np.abs(angles - tg.angle_rad))])
            if angles.size
            else float("nan")
        )
        report = EstimateReport.from_measurements(
            delay_hat, doppler_hat, angle_hat, link.carrier_hz
        )
        per = detection_record(best, report)
        # Delays wrap on the frame, so score the range error modulo the
        # unambiguous range, in [-1/2, 1/2) of it.
        range_err = report.range_m - SPEED_OF_LIGHT * tg.delay_s / 2.0
        per["range_err"] = range_err - unambiguous_m * math.floor(
            range_err / unambiguous_m + 0.5
        )
        per["velocity_err"] = report.velocity_mps - SPEED_OF_LIGHT * tg.doppler_hz / (
            2.0 * link.carrier_hz
        )
        per["angle_err_deg"] = math.degrees(angle_hat - tg.angle_rad)
        out["per_target"].append(per)
    return out


def run_radar(cfg: SimConfig, targets: tuple[TargetSpec, ...] | None = None) -> MonteCarloResult:
    """Monte Carlo radar runs: detect, then estimate delay, Doppler, and angle.

    Detection uses OS-CFAR on the first frame of the CPI (which keeps the
    per-cell false alarm probability at its calibrated value); delay comes
    from band-limited peak refinement, Doppler from the correlation-peak
    phases across the CPI frames, and the angle from beam-domain MUSIC on the
    CPI-averaged covariance.  One record per sweep point; with no
    range_grid_m configured there is a single point at the scenario ranges.
    """
    specs = tuple(targets) if targets is not None else cfg.targets
    if cfg.range_grid_m and len(specs) != 1:
        raise ValueError("range sweeps require exactly one target")
    frame_s = cfg.frame_len * cfg.link.sample_period
    for range_m in [spec.range_m for spec in specs] + list(cfg.range_grid_m):
        if 2.0 * range_m / SPEED_OF_LIGHT >= frame_s:
            raise ValueError(
                f"target range {range_m} m has a round-trip delay of at least "
                f"the {cfg.frame_len}-sample frame"
            )
    sweep = (
        [
            tuple([replace(specs[0], range_m=r)])
            for r in cfg.range_grid_m
        ]
        if cfg.range_grid_m
        else [specs]
    )

    records = []
    sample_detections: list[list[dict]] = []
    detection_keys = ("cell", "range_m", "velocity_mps", "angle_deg", "statistic", "threshold")
    for sweep_idx, point_specs in enumerate(sweep):
        ref_angle = (
            math.radians(point_specs[0].angle_deg) if point_specs else 0.0
        )
        segment = _segment_for(cfg.schedule, ref_angle)
        bf = make_beamformers(
            (segment[0] + segment[1]) / 2.0, segment[1] - segment[0], cfg.array
        )

        def one_trial(trial: int) -> dict:
            return _radar_trial(cfg, point_specs, bf, segment, sweep_idx, trial)

        trials = _parallel_map(one_trial, range(cfg.trials))

        sample_detections.append(
            [
                {k: per[k] for k in detection_keys}
                for per in trials[0]["per_target"]
                if per is not None
            ]
        )

        range_sq, vel_sq, ang_sq = [], [], []
        detected = 0
        expected = cfg.trials * max(1, len(point_specs))
        false_cells = sum(t["false_cells"] for t in trials)
        scanned = sum(t["cells"] for t in trials)
        for t in trials:
            for per in t["per_target"]:
                if per is None:
                    continue
                detected += 1
                range_sq.append(per["range_err"] ** 2)
                if not math.isnan(per["velocity_err"]):
                    vel_sq.append(per["velocity_err"] ** 2)
                if not math.isnan(per["angle_err_deg"]):
                    ang_sq.append(per["angle_err_deg"] ** 2)

        def rmse(sq: list[float]) -> float:
            return math.sqrt(sum(sq) / len(sq)) if sq else float("nan")

        records.append(
            {
                "range_m": float(point_specs[0].range_m) if point_specs else float("nan"),
                "detection_rate": detected / expected if point_specs else 0.0,
                "rmse_range_m": rmse(range_sq),
                "rmse_velocity_mps": rmse(vel_sq),
                "rmse_angle_deg": rmse(ang_sq),
                "false_alarm_rate": false_cells / scanned,
                "trials": cfg.trials,
            }
        )
    return MonteCarloResult(
        kind="radar",
        records=records,
        extra={"sample_detections": sample_detections},
    )


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate.

    With no hits it is [0, z**2 / (trials + z**2)], and mirrored with every
    trial a hit; those closed-form ends are returned exactly.
    """
    z = 1.96
    z2 = z * z
    center = (hits + z2 / 2.0) / (trials + z2)
    half = z * math.sqrt(hits * (trials - hits) / trials + z2 / 4.0) / (trials + z2)
    low = 0.0 if hits == 0 else center - half
    high = 1.0 if hits == trials else center + half
    return low, high


def run_cfar_calibration(cfg: SimConfig, cells: int | None = None) -> MonteCarloResult:
    """Noise-only false-alarm rate of the configured OS-CFAR detector.

    Post-correlation noise power is exponential, so frames of unit-variance
    circular Gaussian cells are drawn directly.  Returns the empirical rate
    with a 95% Wilson score interval.
    """
    total = int(cells) if cells is not None else cfg.trials * cfg.frame_len
    need = 100.0 / cfg.cfar.pfa
    if total < need:
        raise ValueError(
            f"insufficient cells: need at least {need:.0f} for pfa={cfg.cfar.pfa}"
        )
    chunk = 65_536
    n_chunks = -(-total // chunk)

    def chunk_hits(idx: int) -> int:
        rng = _rng_for(cfg.seed, 2, idx)
        # Bit for bit (re + 1j*im) / sqrt(2), built in place without the
        # complex temporaries.
        frame = np.empty(chunk, dtype=complex)
        frame.real = rng.standard_normal(chunk)
        frame.imag = rng.standard_normal(chunk)
        frame /= math.sqrt(2.0)
        return len(os_cfar(frame, cfg.cfar))

    hits = sum(_parallel_map(chunk_hits, range(n_chunks)))
    n_cells = n_chunks * chunk
    ci_low, ci_high = _wilson_interval(hits, n_cells)
    record = {
        "pfa_target": cfg.cfar.pfa,
        "pfa_empirical": hits / n_cells,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "cells": n_cells,
        "detections": hits,
        "alpha": cfg.cfar.alpha,
    }
    return MonteCarloResult(kind="cfar", records=[record])


# --------------------------------------------------------------------------
# configuration files and result output
# --------------------------------------------------------------------------


# The JSON schema is one table per section: JSON key -> (dataclass field,
# codec).  A codec is a (load, dump) pair: load(value, path) checks the JSON
# value at the dotted key ``path`` and returns the field value, dump returns
# the JSON value of a field.  Both directions of the schema come from these
# tables, and absent keys take the dataclass defaults.


def _key_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _load_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path} must be an integer, got {value!r}")
    return value


def _load_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{path} must be a finite number, got {number}")
    return number


def _load_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{path} must be a string, got {value!r}")
    return value


def _same(value):
    return value


class _Codec(NamedTuple):
    load: Callable  # (JSON value, dotted key) -> field value
    dump: Callable  # field value -> JSON value


_INT = _Codec(_load_int, _same)
_FLOAT = _Codec(_load_float, _same)
_STR = _Codec(_load_str, _same)


def _list_of(item: _Codec) -> _Codec:
    def load(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        return tuple(item.load(v, f"{path}[{i}]") for i, v in enumerate(value))

    return _Codec(load, lambda values: [item.dump(v) for v in values])


def _load_degree_pair(value, path: str) -> tuple[float, float]:
    pair = _list_of(_FLOAT).load(value, path)
    if len(pair) != 2:
        raise ValueError(f"{path} must be a [low, high] pair, got {value!r}")
    return math.radians(pair[0]), math.radians(pair[1])


_DEGREE_PAIR = _Codec(_load_degree_pair, lambda pair: [math.degrees(a) for a in pair])


def _section(cls, keys: dict, default=None) -> _Codec:
    """Codec for a JSON object that maps onto dataclass ``cls`` through ``keys``.

    Absent keys take their value from the instance ``default`` when given,
    otherwise the dataclass default; a field with neither must be present.
    Only the tabled fields are passed, so derived fields such as
    ``CfarConfig.alpha`` are computed afresh.
    """
    required = set() if default is not None else {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    }

    def load(doc, path: str):
        if not isinstance(doc, dict):
            raise ValueError(f"{path or 'configuration'} must be an object, got {doc!r}")
        for key in doc:
            if key not in keys:
                raise ValueError(f"unknown configuration key {_key_path(path, key)!r}")
        kwargs = {}
        for key, (name, codec) in keys.items():
            if key in doc:
                kwargs[name] = codec.load(doc[key], _key_path(path, key))
            elif default is not None:
                kwargs[name] = getattr(default, name)
            elif name in required:
                raise ValueError(f"{_key_path(path, key)} is required")
        return cls(**kwargs)

    def dump(obj) -> dict:
        return {key: codec.dump(getattr(obj, name)) for key, (name, codec) in keys.items()}

    return _Codec(load, dump)


_DEFAULT_CONFIG = SimConfig()

_CONFIG = _section(
    SimConfig,
    {
        "modulation": ("modulation", _section(
            ModulationParams,
            {"k": ("num_bits", _INT), "lambda": ("radius_tuning", _FLOAT)},
            _DEFAULT_CONFIG.modulation,
        )),
        "array": ("array", _section(
            ArrayConfig,
            {"n_a": ("num_antennas", _INT), "n_rf": ("num_rf_chains", _INT)},
            _DEFAULT_CONFIG.array,
        )),
        "link": ("link", _section(
            LinkBudget,
            {
                "eirp": ("eirp_dbm", _FLOAT),
                "f_c": ("carrier_hz", _FLOAT),
                "w": ("bandwidth_hz", _FLOAT),
                "noise_psd": ("noise_psd", _FLOAT),
                "range": ("range_m", _FLOAT),
            },
            _DEFAULT_CONFIG.link,
        )),
        "schedule": ("schedule", _section(
            FrameSchedule,
            {
                "segments_deg": ("segments", _list_of(_DEGREE_PAIR)),
                "frames_per_cpi": ("frames_per_cpi", _INT),
                "t_cpi": ("t_cpi", _FLOAT),
            },
            _DEFAULT_CONFIG.schedule,
        )),
        "channel_model": ("channel_model", _STR),
        "snr_grid_db": ("snr_grid_db", _list_of(_FLOAT)),
        "trials": ("trials", _INT),
        "seed": ("seed", _INT),
        "frame_len": ("frame_len", _INT),
        "batch_size": ("batch_size", _INT),
        "cfar": ("cfar", _section(
            CfarConfig,
            {
                "window": ("window", _INT),
                "guard": ("guard", _INT),
                "os_rank": ("os_rank", _INT),
                "pfa": ("pfa", _FLOAT),
            },
            _DEFAULT_CONFIG.cfar,
        )),
        "targets": ("targets", _list_of(_section(
            TargetSpec,
            {
                "range_m": ("range_m", _FLOAT),
                "velocity_mps": ("velocity_mps", _FLOAT),
                "angle_deg": ("angle_deg", _FLOAT),
                "rcs_dbsm": ("rcs_dbsm", _FLOAT),
            },
        ))),
        "range_grid_m": ("range_grid_m", _list_of(_FLOAT)),
        "angle_grid_deg": ("angle_grid_deg", _FLOAT),
    },
)


def config_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from the JSON schema documented in the README.

    Absent keys take the dataclass defaults, except ``schedule.t_cpi``,
    which defaults to frames_per_cpi * frame_len / w.  An unknown key, a
    value of the wrong JSON kind, a non-finite number or a target without
    ``range_m`` raises ValueError naming the dotted key.
    """
    cfg = _CONFIG.load(doc, "")
    if "t_cpi" not in doc.get("schedule", {}):
        sch = cfg.schedule
        t_cpi = sch.frames_per_cpi * cfg.frame_len / cfg.link.bandwidth_hz
        cfg = replace(cfg, schedule=replace(sch, t_cpi=t_cpi))
    return cfg


def config_to_dict(cfg: SimConfig) -> dict:
    """The JSON document of ``cfg``; ``config_from_dict`` inverts it."""
    return _CONFIG.dump(cfg)


def load_config(path: str | Path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename, so interrupted runs leave no partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_result(result: MonteCarloResult, out_dir: str | Path, basename: str, cfg: SimConfig | None = None) -> tuple[Path, Path]:
    """Write <basename>.csv and <basename>_summary.json atomically; returns the paths."""
    out_dir = Path(out_dir)
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}_summary.json"
    atomic_write_text(csv_path, result.to_csv())
    summary = {"kind": result.kind, "records": result.records}
    summary.update(result.extra)
    if cfg is not None:
        summary["config"] = config_to_dict(cfg)
    atomic_write_text(json_path, json.dumps(summary, indent=2))
    return csv_path, json_path
