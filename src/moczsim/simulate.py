"""End-to-end Monte Carlo experiments: BER sweeps, radar runs, CFAR calibration.

Every run is a pure function of its configuration, including the seed: each
radar trial or CFAR chunk derives its own random stream from (seed, purpose,
index), and each block of BER packets one, keyed (seed, 4, block), for its
messages, its fade and the one noise block that every SNR point of the
sweep scales.  Results are reduced by summation, so neither the worker count
nor ``batch_size`` ever changes the output.
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
from typing import Iterable, get_args, get_origin, get_type_hints

import numpy as np

from .channel import (
    DB_LIMIT,
    SPEED_OF_LIGHT,
    ArrayConfig,
    Beamformer,
    LinkBudget,
    RadarTarget,
    make_beamformers,
    receive_radar,
)
from .dizet import decide, eval_on_zero_grid
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

# Unused here, but the benchmark's tracer (bench/spans.py) wraps them by name
# as attributes of this module.  run_ber draws its noise and decides from the
# zero-grid values itself, so awgn and dizet_decode_batch are among them.
from .channel import apply_radar_channel, awgn  # noqa: F401
from .dizet import dizet_decode_batch  # noqa: F401
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

# Packets per BER block stream (messages, fade and noise), and per pass
# through the BER chain.
_BER_BLOCK = 128

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
        # The two Wishart draws of channel.receive_radar need these, with D <= T.
        n_frames, n_rf = self.schedule.frames_per_cpi, self.array.num_rf_chains
        n_targets = len(self.targets)
        if self.frame_len - n_targets - 1 < n_rf - 1 or (
            n_frames >= 2 and (n_frames - 1) * (self.frame_len - 2 * n_targets) < n_rf
        ):
            raise ValueError(
                f"frame_len = {self.frame_len} is too short for the radar receive draw: need "
                "frame_len - targets - 1 >= n_rf - 1 and, with frames_per_cpi >= 2, "
                "(frames_per_cpi - 1) * (frame_len - 2 * targets) >= n_rf"
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
            try:
                range_m**4  # channel.radar_gain's denominator
            except OverflowError:
                raise ValueError(f"{path} = {range_m} m: range_m**4 overflows a float") from None
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


def _fade_taps(model: str, b: int, rng: np.random.Generator) -> np.ndarray | None:
    """The (B, n_taps) channel taps of ``model`` for B packets, tap 0 first.

    ``rayleigh_flat`` draws one complex gain per packet and
    ``rician_selective`` four Rician taps at whole sample delays; ``awgn``
    draws nothing and returns None.
    """
    if model == "awgn":
        return None
    if model == "rayleigh_flat":
        h = (rng.standard_normal(b) + 1j * rng.standard_normal(b)) / math.sqrt(2.0)
        return h[:, None]
    if model == "rician_selective":
        n_taps = _SELECTIVE_TAP_POWERS.size
        psi = rng.uniform(0.0, 2.0 * np.pi, (b, n_taps))
        los = math.sqrt(_RICIAN_FACTOR / (_RICIAN_FACTOR + 1.0)) * np.exp(1j * psi)
        diffuse = math.sqrt(1.0 / (2.0 * (_RICIAN_FACTOR + 1.0))) * (
            rng.standard_normal((b, n_taps)) + 1j * rng.standard_normal((b, n_taps))
        )
        return np.sqrt(_SELECTIVE_TAP_POWERS)[None, :] * (los + diffuse)
    raise ValueError(f"unknown channel model {model!r}")


def _fade_batch(outer, inner, model: str, rng: np.random.Generator, radius: float, mix):
    """Fade a block of packets on its two zero grids, in place.

    ``outer`` and ``inner`` hold the (B, K) values of the clean packets on
    the grids of radius ``radius`` and 1/``radius``.  A multipath channel
    multiplies the transmit polynomial by its own, H(z) = sum_j h_j z^j, so
    each grid is multiplied by H's values there: one (B, n_taps) @
    (n_taps, K) product of the taps with the powers (r a_k)^j of its points
    r a_k, written to the (B, K) complex ``mix``.  The grids are then
    those of the packets convolved with their taps: for ``rician_selective``
    a full linear convolution of K+4 samples.  Returns (outer, inner).
    """
    taps = _fade_taps(model, outer.shape[0], rng)
    if taps is not None:
        # a_k^j = exp(2i pi k / K)^j, the angles reduced modulo K
        k = outer.shape[1]
        j = np.arange(taps.shape[1])[:, None]
        roots = np.exp(2j * np.pi * (j * np.arange(k) % k) / k)
        for grid, r in ((outer, radius), (inner, 1.0 / radius)):
            np.matmul(taps, r**j * roots, out=mix)
            grid *= mix
    return outer, inner


def _rows(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols values of a flat buffer as a (rows, cols) array."""
    return buffer[: rows * cols].reshape(rows, cols)


def _decide_from_grids(grids, scale: float, radius: float, n: int, mix, mags):
    """``dizet_decode_batch(x + scale * z)`` from the zero-grid values of x and z.

    ``grids`` holds the (B, K) values of the packets x on the outer and
    inner grids, then those of the noise z.  The values are linear in the
    samples, so C + scale * Z are the noisy packets' values; their
    magnitudes go to the two float arrays ``mags`` through the complex
    ``mix`` and the decoder's ``decide`` takes them from there.  Returns
    (bits, margins), the margins in ``mags[0]``.
    """
    for clean, noise, out in zip(grids[:2], grids[2:], mags):
        np.multiply(noise, scale, out=mix)
        mix += clean
        np.abs(mix, out=out)
    return decide(mags[0], mags[1], radius, n)


def run_ber(cfg: SimConfig) -> MonteCarloResult:
    """Bit error rate sweep of the noncoherent decoder over cfg.snr_grid_db.

    SNR is Eb/N0 with Eb = 1/K (unit packet energy over K payload bits), so
    the per-sample complex noise variance at SNR s dB is 10^(-s/10) / K.  The
    coherent BPSK reference Q(sqrt(2 Eb/N0)) is emitted alongside each point.

    Packets run in blocks of 128, each with one stream of its own that draws
    the block's messages, its fade and then one unit noise block z (real and
    imaginary parts N(0, 1)).  Every SNR point sees the same packets,
    channels and noise (common random numbers), scaled by
    s = sqrt(noise variance / 2).  The decoder's zero-grid values are linear
    in the samples, so the block is evaluated on the two grids once for its
    packets, which the fade then multiplies by each channel's polynomial
    there (C), and once for z (Z), and each point decides from C + s Z with
    the decoder's own rule: one encode, fade, noise draw and four grid
    evaluations per block, whatever the grid length.
    ``batch_size`` only sets the packets of one worker task, rounded up to
    whole blocks; it never changes the output.  A task allocates one buffer
    set, sized to its first block, and every stage of every block runs in
    it; it returns its bit errors per SNR point.
    """
    params = cfg.modulation
    k = params.num_bits
    radius = params.outer_radius
    n_blocks = -(-cfg.trials // _BER_BLOCK)
    per_task = -(-cfg.batch_size // _BER_BLOCK)
    tasks = [range(b, min(b + per_task, n_blocks)) for b in range(0, n_blocks, per_task)]
    growth = _SELECTIVE_TAP_POWERS.size - 1  # samples a rician_selective packet gains
    rx_len = params.seq_len + (growth if cfg.channel_model == "rician_selective" else 0)
    scales = [math.sqrt(10.0 ** (-snr_db / 10.0) / k / 2.0) for snr_db in cfg.snr_grid_db]

    def task_errors(blocks: range) -> list[int]:
        # ``grids`` holds the four grids.  ``signal`` holds the packets,
        # then z (rx_len samples a packet), then each point's two magnitude
        # arrays as floats; ``spare`` the channels' values on each grid in
        # turn, then z's drawn real and imaginary parts as floats, then each
        # point's noisy values.  Each is sized for the task's first block,
        # its largest.
        rows = min(_BER_BLOCK, cfg.trials - blocks.start * _BER_BLOCK)
        signal = np.empty(rows * rx_len, dtype=complex)
        spare = np.empty(rows * rx_len, dtype=complex)
        grids = np.empty((4, rows * k), dtype=complex)
        errors = [0] * len(scales)
        for block in blocks:
            rng = _rng_for(cfg.seed, 4, block)
            size = min(_BER_BLOCK, cfg.trials - block * _BER_BLOCK)
            msgs = rng.integers(0, 2, (size, k), dtype=np.int8)
            tx = encode_batch(msgs, params, out=_rows(signal, size, params.seq_len))
            views = [_rows(grid, size, k) for grid in grids]
            eval_on_zero_grid(tx, radius, k, out=views[0])
            eval_on_zero_grid(tx, 1.0 / radius, k, out=views[1])
            mix = _rows(spare, size, k)
            _fade_batch(views[0], views[1], cfg.channel_model, rng, radius, mix)
            # z's real parts, then its imaginary parts, in one N(0, 1) draw:
            # the stream of awgn at variance 2
            parts = spare.view(np.float64)[: 2 * size * rx_len].reshape(2, size, rx_len)
            rng.standard_normal(out=parts)
            z = _rows(signal, size, rx_len)
            z.real, z.imag = parts
            eval_on_zero_grid(z, radius, k, out=views[2])
            eval_on_zero_grid(z, 1.0 / radius, k, out=views[3])
            floats = signal.view(np.float64)
            mags = (_rows(floats, size, k), _rows(floats[size * k :], size, k))
            for point, scale in enumerate(scales):
                bits, _ = _decide_from_grids(views, scale, radius, rx_len, mix, mags)
                errors[point] += int(np.count_nonzero(bits != msgs))
        return errors

    totals = [sum(counts) for counts in zip(*_parallel_map(task_errors, tasks))]
    records = []
    for snr_db, errors in zip(cfg.snr_grid_db, totals):
        snr_lin = 10.0 ** (snr_db / 10.0)
        records.append({
            "snr_db": float(snr_db),
            "ber": errors / (cfg.trials * k),
            "packets": cfg.trials,
            "bit_errors": errors,
            "bpsk_ref": 0.5 * math.erfc(math.sqrt(snr_lin)),
        })
    return MonteCarloResult(kind="ber", records=records)


def _radar_trial(
    cfg: SimConfig,
    specs: tuple[TargetSpec, ...],
    bf: Beamformer,
    sweep_idx: int,
    trial: int,
) -> tuple[int, list[dict], list[tuple[float, float, float]]]:
    """One coherent processing interval: frames, detection, and estimation.

    The receiver reads frames 1..F-1 only through one correlation value per
    target detected on frame 0, at its frame-0 delay, and the covariance, so
    ``receive_radar`` draws them after detection, exactly in distribution.
    MUSIC's source count is ``min(len(matched), n_rf - 1)``, where ``matched``
    holds the clusters within two cells of a true target cell: it comes from
    the ground truth, which a receiver does not have.

    Returns the count of CFAR cells more than two cells from every target,
    then two lists with one entry per detected target, in target order: the
    sample record of its strongest cluster within two cells, and its
    (range, velocity, angle in degrees) errors against its ``TargetSpec``.
    A missed target is absent.
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

    # Frames carry no pilots or preambles and run back to back, frame f
    # starting at f * N / w.  Only frame 0's profile goes to the CFAR; delay
    # refinement and its Doppler phase read its cross-spectrum.
    msgs = rng.integers(0, 2, (n_frames, params.num_bits), dtype=np.int8)
    frames_tx = encode_batch(msgs, params)
    frame_times = np.arange(n_frames) * cfg.frame_s
    combined, rest = receive_radar(
        amp * frames_tx, targets, bf, t_sample, n, frame_times, link.noise_variance, rng
    )
    spectrum = cross_spectrum(frames_tx[0], combined)

    # Scoring: a cell within two cells of a target's true cell, on the
    # circular frame, belongs to that target; every other CFAR cell is a
    # false alarm.
    power = np.abs(np.fft.ifft(spectrum)) ** 2
    cells, thresholds = os_cfar(power, cfg.cfar)
    peaks = cluster_detections(cells, power, n)
    true_cells = [round(tg.delay_s / t_sample) % n for tg in targets]

    def near(cell: int, true_cell: int) -> bool:
        gap = abs(cell - true_cell)
        return min(gap, n - gap) <= 2

    false_cells = sum(not any(near(c, tc) for tc in true_cells) for c in cells.tolist())
    matched = [c for c in peaks if any(near(c, tc) for tc in true_cells)]
    detected = []  # (spec, target, cell) of each detected target
    for spec, tg, tc in zip(specs, targets, true_cells):
        best = max((c for c in matched if near(c, tc)), key=lambda c: power[c], default=None)
        if best is not None:
            detected.append((spec, tg, best))
    lags = [estimate_delay(spectrum, best) for _, _, best in detected]
    values, cov = rest(lags)
    num_sources = min(len(matched), cfg.array.num_rf_chains - 1)
    angles = music_angles(cov, bf.rx_matrix, num_sources, cfg.schedule.segment)
    phases = np.angle(np.vstack((correlation_value_at(spectrum, lags), values)))  # (F, D)

    unambiguous_m = SPEED_OF_LIGHT * cfg.frame_s / 2.0
    samples, errors = [], []
    for j, ((spec, tg, best), lag) in enumerate(zip(detected, lags)):
        doppler_hat = (
            estimate_doppler(phases[:, j], frame_times) if n_frames >= 2 else float("nan")
        )
        angle_hat = (
            float(angles[np.argmin(np.abs(angles - tg.angle_rad))])
            if angles.size
            else float("nan")
        )
        sample = {
            "cell": best,
            "range_m": SPEED_OF_LIGHT * lag * t_sample / 2.0,
            "velocity_mps": SPEED_OF_LIGHT * doppler_hat / (2.0 * link.carrier_hz),
            "angle_deg": math.degrees(angle_hat),
            "statistic": float(power[best]),
            "threshold": float(thresholds[np.searchsorted(cells, best)]),
        }
        samples.append(sample)
        # Delays wrap on the frame, so score the range error modulo the
        # unambiguous range, in [-1/2, 1/2) of it.
        range_err = sample["range_m"] - spec.range_m
        errors.append(
            (
                range_err - unambiguous_m * math.floor(range_err / unambiguous_m + 0.5),
                sample["velocity_mps"] - spec.velocity_mps,
                sample["angle_deg"] - spec.angle_deg,
            )
        )
    return false_cells, samples, errors


def run_radar(cfg: SimConfig) -> MonteCarloResult:
    """Monte Carlo radar runs: detect, then estimate delay, Doppler, and angle.

    Detection uses OS-CFAR on the first frame of the CPI (which keeps the
    per-cell false alarm probability at its calibrated value); delay comes
    from band-limited peak refinement, Doppler from the correlation-peak
    phases across the CPI frames, and the angle from beam-domain MUSIC on the
    CPI-averaged covariance.  A CPI draws frame 0's combined row, then, after
    detection, the later frames' correlation values at the detected delays
    and the covariance; the noise they do not show one by one enters as two
    complex Wisharts (Goodman 1963) drawn by Bartlett's decomposition (1933).
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


def run_cfar_calibration(cfg: SimConfig) -> MonteCarloResult:
    """Noise-only false-alarm rate of the configured OS-CFAR detector over
    ``trials * frame_len`` cells, rounded up to whole 65 536-cell chunks.

    The detector reads only cell power, and |z|^2 of CN(0, 1) noise is exactly
    Exp(1), so each chunk draws Exp(1) power from its own stream.
    The chunks run as one contiguous range per worker; a task allocates the
    power buffer once and every chunk of it draws there.  Returns the
    empirical rate with a 95% Wilson score interval.
    """
    total = cfg.trials * cfg.frame_len
    need = 100.0 / cfg.cfar.pfa
    if total < need:
        raise ValueError(
            f"insufficient cells: need at least {need:.0f} for pfa={cfg.cfar.pfa}"
        )
    chunk = 65_536
    n_chunks = -(-total // chunk)
    per_task = -(-n_chunks // _max_workers())
    tasks = [range(c, min(c + per_task, n_chunks)) for c in range(0, n_chunks, per_task)]

    def task_hits(chunks: range) -> int:
        power = np.empty(chunk)
        hits = 0
        for idx in chunks:
            _rng_for(cfg.seed, 2, idx).standard_exponential(out=power)
            hits += len(os_cfar(power, cfg.cfar)[0])
        return hits

    hits = sum(_parallel_map(task_hits, tasks))
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


# The JSON schema: one table per section dataclass, mapping each JSON key to
# its field, in the order of the JSON document.  A key's JSON kind follows
# its field's type, absent keys take the dataclass defaults, and fields left
# out, such as CfarConfig.alpha, are derived and never read.
_KEYS: dict[type, dict[str, str]] = {
    SimConfig: {f.name: f.name for f in fields(SimConfig)},
    ModulationParams: {"k": "num_bits", "lambda": "radius_tuning"},
    ArrayConfig: {"n_a": "num_antennas", "n_rf": "num_rf_chains"},
    LinkBudget: {
        "eirp": "eirp_dbm", "f_c": "carrier_hz", "w": "bandwidth_hz", "noise_psd": "noise_psd"
    },
    FrameSchedule: {f.name: f.name for f in fields(FrameSchedule)},
    CfarConfig: {name: name for name in ("window", "guard", "os_rank", "pfa")},
    TargetSpec: {f.name: f.name for f in fields(TargetSpec)},
}


def _key_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _load_object(cls, doc, path: str):
    """The dataclass ``cls`` from the JSON object ``doc`` at the dotted key ``path``.

    Absent keys take the dataclass default; a field without one must be
    present.  Only the tabled fields are passed, so derived fields such as
    ``CfarConfig.alpha`` are computed afresh.  A ValueError from ``cls``'s
    own checks is raised again with the section's dotted key in front and
    each field name in its message replaced by that field's JSON key.
    """
    keys = _KEYS[cls]
    if not isinstance(doc, dict):
        raise ValueError(f"{path or 'configuration'} must be an object, got {doc!r}")
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown configuration key {_key_path(path, key)!r}")
    required = {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    }
    types = get_type_hints(cls)
    kwargs = {}
    for key, name in keys.items():
        if key in doc:
            kwargs[name] = _load(types[name], doc[key], _key_path(path, key))
        elif name in required:
            raise ValueError(f"{_key_path(path, key)} is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        json_key = {name: key for key, name in keys.items()}
        message = re.sub(r"\w+", lambda m: json_key.get(m[0], m[0]), str(exc))
        raise ValueError(f"{path}: {message}") from exc


def _load(tp, value, path: str):
    """The value of a field of type ``tp`` from the JSON ``value`` at ``path``."""
    if tp in _KEYS:
        return _load_object(tp, value, path)
    if tp == tuple[float, float]:
        pair = _load(tuple[float, ...], value, path)
        if len(pair) != 2:
            raise ValueError(f"{path} must be a [low, high] pair, got {value!r}")
        return pair
    if get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        item = get_args(tp)[0]
        return tuple(_load(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{path} must be an integer, got {value!r}")
        return value
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            raise ValueError(f"{path} must be a finite number, got {number}")
        return number
    if tp is str:
        if not isinstance(value, str):
            raise ValueError(f"{path} must be a string, got {value!r}")
        return value
    raise TypeError(f"{path}: no JSON kind for field type {tp!r}")


def _dump(value):
    """The JSON value of a field: a section through its ``_KEYS`` table, a sequence as a list."""
    if type(value) in _KEYS:
        return {key: _dump(getattr(value, name)) for key, name in _KEYS[type(value)].items()}
    if isinstance(value, (tuple, list)):
        return [_dump(v) for v in value]
    return value


def config_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from the JSON schema documented in the README.

    Absent keys take the dataclass defaults.  An unknown key, a value of the
    wrong JSON kind, a non-finite number or a target without ``range_m``
    raises ValueError naming the dotted key.
    """
    return _load_object(SimConfig, doc, "")


def config_to_dict(cfg: SimConfig) -> dict:
    """The JSON document of ``cfg``; ``config_from_dict`` inverts it."""
    return _dump(cfg)


def load_config(path: str | Path, overrides: Iterable[str] = ()) -> SimConfig:
    """The config of the JSON file at ``path``, each ``section.key=value`` of
    ``overrides`` set in the document first.  A value is read as JSON, and
    text that is not JSON as a string; the dotted key runs through objects
    only, so a list is set whole."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for override in overrides:
        dotted, sep, text = override.partition("=")
        if not sep:
            raise ValueError(f"override {override!r} must have the form key=value")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        keys = dotted.split(".")
        node = doc
        for depth, key in enumerate(keys):
            if not isinstance(node, dict):
                where = ".".join(keys[:depth]) or "configuration"
                raise ValueError(f"{where} must be an object, got {node!r}")
            parent, node = node, node.setdefault(key, {})  # a missing section is added
        parent[key] = value
    return config_from_dict(doc)


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
