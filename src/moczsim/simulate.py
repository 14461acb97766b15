"""End-to-end Monte Carlo experiments: BER sweeps, radar runs, CFAR calibration.

Every run is a pure function of its configuration, including the seed: each
batch or trial derives its own random stream from (seed, purpose, index), and
results are reduced by summation, so the worker count never changes the
output.  ``batch_size`` does: it decides which packets share a BER stream.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    DB_LIMIT,
    SPEED_OF_LIGHT,
    ArrayConfig,
    Beamformer,
    LinkBudget,
    RadarTarget,
    awgn,
    make_beamformers,
    receive_radar,
)
from .dizet import dizet_decode_batch
from .huffman import ModulationParams, encode_batch
from .radar import (
    CfarConfig,
    cluster_detections,
    correlation_value_at,
    cross_spectrum,
    estimate_delay,
    estimate_doppler,
    music_angles,
    os_cfar,
)

# Unused here, but bench/spans.py wraps them by name as attributes of this module.
from .channel import apply_radar_channel  # noqa: F401
from .radar import cross_correlate, sample_covariance  # noqa: F401

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

@dataclass(frozen=True)
class TargetSpec:
    """Scenario-level target description in physical units."""

    range_m: float
    velocity_mps: float = 0.0
    angle_deg: float = 0.0
    rcs_dbsm: float = 10.0


@dataclass(frozen=True)
class FrameSchedule:
    """Scanned angular segment (degrees) and frame count of one CPI."""

    segment_deg: tuple[float, float] = (-30.0, 30.0)
    frames_per_cpi: int = 16

    def __post_init__(self):
        if self.frames_per_cpi < 1:
            raise ValueError("frames_per_cpi must be >= 1")
        lo, hi = self.segment_deg
        if not (-90.0 <= lo < hi <= 90.0):
            raise ValueError("segment_deg must be an ordered interval within [-90, 90] degrees")

    @property
    def segment(self) -> tuple[float, float]:
        """The segment in radians."""
        return math.radians(self.segment_deg[0]), math.radians(self.segment_deg[1])


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation campaign."""

    modulation: ModulationParams = ModulationParams()
    array: ArrayConfig = ArrayConfig()
    link: LinkBudget = LinkBudget()
    schedule: FrameSchedule = FrameSchedule()
    channel_model: str = "awgn"
    snr_grid_db: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    trials: int = 10_000
    seed: int = 0
    frame_len: int = 1024
    batch_size: int = 16_384
    cfar: CfarConfig = CfarConfig()
    targets: tuple[TargetSpec, ...] = ()
    range_grid_m: tuple[float, ...] = ()

    def __post_init__(self):
        if self.channel_model not in CHANNEL_MODELS:
            raise ValueError(f"channel_model must be one of {CHANNEL_MODELS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be non-empty")
        for i, snr_db in enumerate(self.snr_grid_db):
            if not abs(snr_db) <= DB_LIMIT:
                raise ValueError(f"snr_grid_db[{i}] must lie within +-{DB_LIMIT} dB, got {snr_db}")
        if self.frame_len < self.modulation.seq_len:
            raise ValueError("frame_len must cover the transmit sequence")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.range_grid_m and len(self.targets) != 1:
            raise ValueError("range_grid_m sweeps require exactly one target")
        for i, spec in enumerate(self.targets):
            if not abs(spec.angle_deg) <= 90.0:
                raise ValueError(
                    f"targets[{i}].angle_deg must lie in [-90, 90], got {spec.angle_deg}"
                )
            if not abs(spec.rcs_dbsm) <= DB_LIMIT:
                raise ValueError(
                    f"targets[{i}].rcs_dbsm must lie within +-{DB_LIMIT} dB, got {spec.rcs_dbsm}"
                )
        n_frames = self.schedule.frames_per_cpi
        if n_frames * (self.frame_len - len(self.targets) - 1) < self.array.num_rf_chains - 1:
            raise ValueError(
                f"frame_len = {self.frame_len} is too short for the radar receive draw: "
                "need frames_per_cpi * (frame_len - targets - 1) >= n_rf - 1"
            )
        # The CPI's summed peak correlation power is at most
        # F EIRP L N_a lambda^2 sigma / ((4 pi)^3 r^4); in dB no term overflows.
        gain = n_frames * self.modulation.seq_len * self.array.num_antennas / (4 * math.pi) ** 3
        gain_db = self.link.eirp_dbm - 30 + 10 * math.log10(gain)
        gain_db += 20 * math.log10(self.link.wavelength)
        ranges = [
            (f"targets[{i}].range_m", t.range_m, t.rcs_dbsm) for i, t in enumerate(self.targets)
        ]
        ranges += [
            (f"range_grid_m[{j}]", r, self.targets[0].rcs_dbsm)
            for j, r in enumerate(self.range_grid_m)
        ]
        for path, range_m, rcs_dbsm in ranges:
            if not range_m > 0:
                raise ValueError(f"{path} must be positive, got {range_m}")
            if 2.0 * range_m / SPEED_OF_LIGHT >= self.frame_s:
                raise ValueError(
                    f"{path} = {range_m} m has a round-trip delay of at least "
                    f"the {self.frame_len}-sample frame"
                )
            if not gain_db + rcs_dbsm - 40.0 * math.log10(range_m) < DB_LIMIT:
                raise ValueError(
                    f"{path} = {range_m} m: the peak correlation power of a {rcs_dbsm} dBsm "
                    f"target at link.eirp {self.link.eirp_dbm} dBm overflows a float"
                )

    @property
    def frame_s(self) -> float:
        """Duration of one frame, frame_len / w: the radar's frame clock period."""
        return self.frame_len / self.link.bandwidth_hz


@dataclass
class MonteCarloResult:
    """Sweep records for regression-diffable output.

    Each run function builds every record with the same keys in the same
    order, so the first record's keys are the CSV columns.
    """

    kind: str
    records: list[dict]
    extra: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        columns = list(self.records[0])
        lines = [",".join(columns)]
        for rec in self.records:
            lines.append(",".join(_format_cell(rec[c]) for c in columns))
        return "\n".join(lines) + "\n"

    def to_json(self, cfg: SimConfig | None = None) -> str:
        """The summary document; with ``cfg``, it ends with the config echo."""
        doc = {"kind": self.kind, "records": self.records, **self.extra}
        if cfg is not None:
            doc["config"] = config_to_dict(cfg)
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


def _radar_trial(
    cfg: SimConfig,
    specs: tuple[TargetSpec, ...],
    bf: Beamformer,
    sweep_idx: int,
    trial: int,
) -> tuple[int, list[dict], list[tuple[float, float, float]]]:
    """One coherent processing interval: frames, detection, and estimation.

    The receiver reads the RF chains only through the combined rows and the
    covariance, so ``receive_radar`` draws just those, exactly in distribution.

    Returns the count of CFAR cells more than two cells from every target,
    then two lists with one entry per detected target, in target order: the
    sample record of its strongest cluster within two cells, and its
    (range, velocity, angle in degrees) errors.  A missed target is absent.
    """
    rng = _rng_for(cfg.seed, 3, sweep_idx, trial)
    params = cfg.modulation
    link = cfg.link
    n = cfg.frame_len
    t_sample = link.sample_period
    n_frames = cfg.schedule.frames_per_cpi

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

    # The whole CPI is one (F, N) block.  Only frame 0's profile goes to the
    # CFAR; delay refinement and the Doppler phases read the cross-spectrum.
    # Frames carry no pilots or preambles and run back to back, frame f
    # starting at f * N / w.
    msgs = rng.integers(0, 2, (n_frames, params.num_bits), dtype=np.int8)
    frames_tx = encode_batch(msgs, params)
    frame_times = np.arange(n_frames) * cfg.frame_s
    combined, cov = receive_radar(
        amp * frames_tx, targets, bf, t_sample, n, frame_times, link.noise_variance, rng
    )
    spectra = cross_spectrum(frames_tx, combined)

    # Scoring: a cell within two cells of a target's true cell, on the
    # circular frame, belongs to that target; every other CFAR cell is a
    # false alarm.
    power = np.abs(np.fft.ifft(spectra[0])) ** 2
    cells, thresholds = os_cfar(power, cfg.cfar)
    peaks = cluster_detections(cells, power, n)
    true_cells = [round(tg.delay_s / t_sample) % n for tg in targets]

    def near(cell: int, true_cell: int) -> bool:
        gap = abs(cell - true_cell)
        return min(gap, n - gap) <= 2

    false_cells = sum(not any(near(c, tc) for tc in true_cells) for c in cells.tolist())
    matched = [c for c in peaks if any(near(c, tc) for tc in true_cells)]
    num_sources = min(len(matched), cfg.array.num_rf_chains - 1)
    angles = music_angles(cov, bf.rx_matrix, num_sources, cfg.schedule.segment)

    unambiguous_m = SPEED_OF_LIGHT * cfg.frame_s / 2.0
    samples, errors = [], []
    for tg, tc in zip(targets, true_cells):
        best = max((c for c in matched if near(c, tc)), key=lambda c: power[c], default=None)
        if best is None:
            continue
        delay_hat = estimate_delay(spectra[0], best, t_sample)
        if n_frames >= 2:
            phases = np.angle(correlation_value_at(spectra, delay_hat / t_sample))
            doppler_hat = estimate_doppler(phases, frame_times)
        else:
            doppler_hat = float("nan")
        angle_hat = (
            float(angles[np.argmin(np.abs(angles - tg.angle_rad))])
            if angles.size
            else float("nan")
        )
        range_m = SPEED_OF_LIGHT * delay_hat / 2.0
        velocity_mps = SPEED_OF_LIGHT * doppler_hat / (2.0 * link.carrier_hz)
        samples.append(
            {
                "cell": best,
                "range_m": range_m,
                "velocity_mps": velocity_mps,
                "angle_deg": math.degrees(angle_hat),
                "statistic": float(power[best]),
                "threshold": float(thresholds[np.searchsorted(cells, best)]),
            }
        )
        # Delays wrap on the frame, so score the range error modulo the
        # unambiguous range, in [-1/2, 1/2) of it.
        range_err = range_m - SPEED_OF_LIGHT * tg.delay_s / 2.0
        errors.append(
            (
                range_err - unambiguous_m * math.floor(range_err / unambiguous_m + 0.5),
                velocity_mps - SPEED_OF_LIGHT * tg.doppler_hz / (2.0 * link.carrier_hz),
                math.degrees(angle_hat - tg.angle_rad),
            )
        )
    return false_cells, samples, errors


def run_radar(cfg: SimConfig) -> MonteCarloResult:
    """Monte Carlo radar runs: detect, then estimate delay, Doppler, and angle.

    Detection uses OS-CFAR on the first frame of the CPI (which keeps the
    per-cell false alarm probability at its calibrated value); delay comes
    from band-limited peak refinement, Doppler from the correlation-peak
    phases across the CPI frames, and the angle from beam-domain MUSIC on the
    CPI-averaged covariance.  A CPI draws only the combined rows and that
    covariance; the RF-chain noise they do not show one by one enters as a
    complex Wishart (Goodman 1963) drawn by Bartlett's decomposition (1933).
    One record per sweep point; with no range_grid_m configured there is a
    single point at the scenario ranges.
    """
    specs = cfg.targets
    sweep = [(replace(specs[0], range_m=r),) for r in cfg.range_grid_m] or [specs]
    # The transmit beam and the receive beams are fixed by the scanned segment.
    bf = make_beamformers(cfg.schedule.segment, cfg.array)

    records = []
    sample_detections: list[list[dict]] = []
    for sweep_idx, point_specs in enumerate(sweep):
        one_trial = partial(_radar_trial, cfg, point_specs, bf, sweep_idx)
        trials = _parallel_map(one_trial, range(cfg.trials))
        sample_detections.append(trials[0][1])
        errors = [e for _, _, trial_errors in trials for e in trial_errors]

        def rmse(column: int) -> float:
            sq = [e[column] ** 2 for e in errors if not math.isnan(e[column])]
            return math.sqrt(sum(sq) / len(sq)) if sq else float("nan")

        records.append(
            {
                "range_m": float(point_specs[0].range_m) if point_specs else float("nan"),
                "detection_rate": (
                    len(errors) / (cfg.trials * len(point_specs)) if point_specs else 0.0
                ),
                "rmse_range_m": rmse(0),
                "rmse_velocity_mps": rmse(1),
                "rmse_angle_deg": rmse(2),
                "false_alarm_rate": sum(f for f, _, _ in trials) / (cfg.trials * cfg.frame_len),
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

    The detector reads only cell power, and |z|^2 of CN(0, 1) noise is exactly
    Exp(1), so each 65 536-cell chunk draws Exp(1) power from its own stream.
    Returns the empirical rate with a 95% Wilson score interval.
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
        power = _rng_for(cfg.seed, 2, idx).standard_exponential(chunk)
        return len(os_cfar(power, cfg.cfar)[0])

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


def _load_pair(value, path: str) -> tuple[float, float]:
    pair = _list_of(_FLOAT).load(value, path)
    if len(pair) != 2:
        raise ValueError(f"{path} must be a [low, high] pair, got {value!r}")
    return pair


_PAIR = _Codec(_load_pair, list)


def _section(cls, keys: dict) -> _Codec:
    """Codec for a JSON object that maps onto dataclass ``cls`` through ``keys``.

    Absent keys take the dataclass default; a field without one must be
    present.  Only the tabled fields are passed, so derived fields such as
    ``CfarConfig.alpha`` are computed afresh.  A ValueError from ``cls``'s
    own checks is raised again with the section's dotted key in front and
    each field name in its message replaced by that field's JSON key.
    """
    required = {
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
            elif name in required:
                raise ValueError(f"{_key_path(path, key)} is required")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            if not path:
                raise
            json_key = {name: key for key, (name, _) in keys.items()}
            message = re.sub(r"\w+", lambda m: json_key.get(m[0], m[0]), str(exc))
            raise ValueError(f"{path}: {message}") from exc

    def dump(obj) -> dict:
        return {key: codec.dump(getattr(obj, name)) for key, (name, codec) in keys.items()}

    return _Codec(load, dump)


_CONFIG = _section(
    SimConfig,
    {
        "modulation": ("modulation", _section(
            ModulationParams,
            {"k": ("num_bits", _INT), "lambda": ("radius_tuning", _FLOAT)},
        )),
        "array": ("array", _section(
            ArrayConfig,
            {"n_a": ("num_antennas", _INT), "n_rf": ("num_rf_chains", _INT)},
        )),
        "link": ("link", _section(
            LinkBudget,
            {
                "eirp": ("eirp_dbm", _FLOAT),
                "f_c": ("carrier_hz", _FLOAT),
                "w": ("bandwidth_hz", _FLOAT),
                "noise_psd": ("noise_psd", _FLOAT),
            },
        )),
        "schedule": ("schedule", _section(
            FrameSchedule,
            {
                "segment_deg": ("segment_deg", _PAIR),
                "frames_per_cpi": ("frames_per_cpi", _INT),
            },
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
    },
)


def config_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from the JSON schema documented in the README.

    Absent keys take the dataclass defaults.  An unknown key, a value of the
    wrong JSON kind, a non-finite number or a target without ``range_m``
    raises ValueError naming the dotted key.
    """
    return _CONFIG.load(doc, "")


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
    atomic_write_text(json_path, result.to_json(cfg))
    return csv_path, json_path
