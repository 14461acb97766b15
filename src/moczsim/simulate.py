"""End-to-end Monte Carlo experiments: BER sweeps, radar runs, CFAR calibration.

Every run is a pure function of its configuration, including the seed: each
radar trial or CFAR chunk derives its own random stream from (seed, purpose,
index), and each block of BER packets one, keyed (seed, 4, block), for its
messages, its fade and the one noise block that every SNR point of the
sweep scales.  The config alone fixes a run's worker tasks, whose tallies
merge in task order, so the worker count never changes the output.
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
from .dizet import _normalizers, eval_on_zero_grid
from .huffman import ModulationParams, broadcast_into, encode_batch
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
# as attributes of this module, and reports a missing one as a lost layer:
# awgn, dizet_decode_batch, apply_radar_channel, cross_correlate and
# sample_covariance.
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
# through the BER chain, and blocks per BER task; cells per CFAR chunk
# stream, and chunks per CFAR task.
_BER_BLOCK, _BER_TASK = 128, 32
_CFAR_CHUNK, _CFAR_TASK = 65_536, 16

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
    batch_size: int = 16_384  # accepted and ignored
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
        if self.frame_len < 1:
            raise ValueError("frame_len must be >= 1")
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
        # The CPI's summed peak correlation power is at most
        # F EIRP L N_a lambda^2 sigma / ((4 pi)^3 r^4); in dB no term overflows.
        n_frames = self.schedule.frames_per_cpi
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


def _split(n: int, size: int) -> list[range]:
    """0..n-1 as consecutive ranges of ``size``, the last one shorter."""
    return [range(i, min(i + size, n)) for i in range(0, n, size)]


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


def _bit_table(params: ModulationParams) -> tuple[int, np.ndarray, complex, complex]:
    """What ``_clean_logs`` needs of ``params``: (M, spectrum, log_zero, log_set).

    A codeword has one zero of each conjugate-reciprocal pair: bit k puts
    it at R a_k when set and at a_k / R when cleared, a_k = w^k with
    w = exp(2i pi / K).  The encoder's values make the codeword of bits m
    X_m(z) = X_0(z) prod_{j set} (z - R a_j) / (R z - a_j), X_0 the all-zero
    codeword's (the 1/R in each term is the unit-energy factor R^-|m|).  At
    a cleared bit's outer point R a_k, set bit j contributes exp(D_{k-j}),
    D_d = log((w^d - 1) / (R w^d - 1/R)) and D_0 = 0, so
    log X_m(R a_k) = log X_0(R a_k) + (m * D)_k, * the circular
    convolution.  By conjugate-reciprocal symmetry, each cleared bit j of
    the all-ones codeword X_1 contributes exp(conj D_{k-j}) at a set bit's
    inner point a_k / R, so log X_m(a_k / R) = log X_1(a_k / R)
    + conj(sum D) - conj((m * D)_k).

    M is the least power of two >= 2K - 1, so one cyclic convolution of
    length M holds the circular one of length K: the kernel holds D at lags
    0..K-1 and again at lags -(K-1)..-1, wrapped to M-K+1..M-1, and the
    bits' K entries never reach the wrapped lags' products.  ``spectrum``
    holds the kernel's length-M DFT S at bins 0..M/2, then conj(S) at bins
    M-1 down to M/2+1, the order in which ``_clean_logs`` reads them.

    The two codewords are binomials in z^K, since prod_k (z - c a_k) =
    z^K - c^K.  With unit energy and the encoder's positive first sample,
    X_0(z) = (R^-K - z^K) / sqrt(1 + R^-2K) and X_1(z) = (R^K - z^K) /
    sqrt(1 + R^2K), so each is one constant on its grid: ``log_zero`` =
    log X_0(R a_k) = log((R^K - R^-K) / sqrt(1 + R^-2K)) + i pi, and
    ``log_set``, what a set bit adds to it, = log X_1(a_k / R)
    + conj(sum D) - ``log_zero``, with log X_1(a_k / R) =
    log((R^K - R^-K) / sqrt(1 + R^2K)).  Only their values modulo 2 pi i
    matter, since only their ``exp`` is ever read.  No encoder table is
    built: the table is O(M) however large K is.
    """
    k = params.num_bits
    radius = params.outer_radius
    m_len = 1 << (2 * k - 1).bit_length()
    w = np.exp(2j * np.pi * np.arange(1, k) / k)
    kernel = np.zeros(m_len, dtype=complex)
    kernel[1:k] = np.log((w - 1.0) / (radius * w - 1.0 / radius))
    kernel[m_len - k + 1 :] = kernel[1:k]
    rk = radius**k
    log_zero = complex(math.log((rk - 1.0 / rk) / math.sqrt(1.0 + rk**-2)), math.pi)
    log_one = math.log((rk - 1.0 / rk) / math.sqrt(1.0 + rk**2))
    log_set = log_one + complex(np.conj(kernel[:k].sum())) - log_zero
    spectrum = np.fft.fft(kernel)
    spectrum[m_len // 2 + 1 :] = np.conj(spectrum[: m_len // 2 : -1])
    return m_len, spectrum, log_zero, log_set


def _clean_logs(bits, table, conv, scratch, out):
    """Each bit's clean log-value at its signal point, from the bits alone.

    ``bits`` is a (B, K) float block of 0/1 messages and ``table`` their
    ``_bit_table``.  Returns ``out``, the (B, K) complex logs L of the
    values X_m(R a_k) at a cleared bit and X_m(a_k / R) at a set one; the
    codeword's value at each bit's other point is its zero there.  c =
    (m * D) is one length-M FFT convolution in the (B, M) complex ``conv``:
    ``rfft`` gives the bits' spectrum X at bins 0..M/2, and since the bits
    are real, bin M - f holds conj(X[f]), so conj(X[f] conj(S[M - f]))
    fills the upper bins, S the kernel's spectrum; then one inverse
    transform.  The logs are log_zero + c at a cleared bit and log_zero +
    log_set - conj(c) = log_zero + log_set - Re c + i Im c at a set one, so
    a set bit adds log_set - 2 Re c to them, through the (B, K) float
    ``scratch``.  No ``exp`` follows here: the fade adds its own logs, and
    ``_screened_errors`` takes the complex ``exp`` of only the bits that can
    err.  The ufuncs over ``conv``'s strided halves run through
    ``broadcast_into``: numpy would otherwise allocate its 8192-value
    buffer (262 KB) for each.
    """
    m_len, spectrum, log_zero, log_set = table
    half = m_len // 2
    lower, upper = conv[:, : half + 1], conv[:, :half:-1]
    np.fft.rfft(bits, n=m_len, axis=1, out=lower)
    broadcast_into(np.multiply, conv[:, 1:half], spectrum[half + 1 :], upper)
    broadcast_into(np.multiply, upper.imag, -1.0, upper.imag)
    broadcast_into(np.multiply, lower, spectrum[: half + 1], lower)
    np.fft.ifft(conv, axis=1, out=conv)
    np.copyto(out, conv[:, : out.shape[1]])
    np.multiply(out.real, -2.0, out=scratch)
    scratch += log_set.real
    scratch *= bits
    out.real += scratch
    np.multiply(bits, log_set.imag, out=scratch)
    out.imag += scratch
    out += log_zero
    return out


def _select(mask, if_set, if_clear):
    """``np.where(mask, if_set, if_clear)``, written over ``if_set``.

    ``if_set`` and ``if_clear`` are contiguous (B, K) float or complex
    arrays, and ``mask`` is int64 in the shape of their int64 view, (B, K)
    or (B, K, 2): -1 (every bit of the word set) at a set message bit and 0
    at a cleared one.  Three passes over the values' bit patterns: exact,
    and two to three times faster than a copy with ``where=``, whose loop
    cannot be vectorised over random bits.
    """
    chosen, other = (a.view(np.int64).reshape(mask.shape) for a in (if_set, if_clear))
    np.bitwise_xor(chosen, other, out=chosen)
    np.bitwise_and(chosen, mask, out=chosen)
    np.bitwise_xor(chosen, other, out=chosen)
    return if_set


def _fade_batch(logs, mask, model: str, rng: np.random.Generator, radius: float, grids, scratch):
    """Fade each bit's clean log-value, in place, by the channel at its signal point.

    ``logs`` holds the (B, K) clean logs of ``_clean_logs``, at R a_k for a
    cleared bit and a_k / R for a set one (``mask``, the (B, K, 2) mask of
    ``_select``).  A multipath channel multiplies the transmit polynomial
    by its own, H(z) = sum_j h_j z^j, and so keeps each bit's zero at its
    other point.  H on each grid is one (B, n_taps) @ (n_taps, K) product
    of the taps with the powers (r a_k)^j of its points, written to the
    (B, K) complex ``grids[0]`` (radius R) and ``grids[1]`` (1/R), and each
    bit takes its own point's.  Its log, log|H| + i arg H, is added to the
    logs through the (B, K) float ``scratch``: an ``abs``, a real ``log``
    and an ``arctan2``, about 9 ns a bit, where a complex ``log`` costs
    100-130 ns.  The values exp(logs) are then those of the packets convolved
    with their taps: for ``rician_selective`` a full linear convolution of
    K+4 samples.  Returns ``logs``.
    """
    taps = _fade_taps(model, logs.shape[0], rng)
    if taps is not None:
        # a_k^j = exp(2i pi k / K)^j, the angles reduced modulo K
        k = logs.shape[1]
        j = np.arange(taps.shape[1])[:, None]
        roots = np.exp(2j * np.pi * (j * np.arange(k) % k) / k)
        for grid, r in zip(grids, (radius, 1.0 / radius)):
            np.matmul(taps, r**j * roots, out=grid)
        h = _select(mask, grids[1], grids[0])
        np.abs(h, out=scratch)
        np.log(scratch, out=scratch)
        logs.real += scratch
        np.arctan2(h.imag, h.real, out=scratch)
        logs.imag += scratch
    return logs


def _signal_and_threshold(outer, inner, mask, radius: float, n: int, thresholds, scratch):
    """What every SNR point's decision reads of a block's noise grids.

    ``outer`` and ``inner`` hold the (B, K) values Z of the unit noise on
    the grids of radius ``radius`` and 1/``radius``, and ``mask`` the bits,
    as the (B, K, 2) mask of ``_select``.  The decoder (``dizet.decide``)
    decides bit 1 where |Y(a_k / R)| / c- > |Y(R a_k)| / c+, c+- the norms
    of the weight vectors of n-sample packets, and 0 at a tie.  The packet's value C is 0
    at each bit's other point, so with Y = C + s Z a cleared bit errs where
    |C/s + Z(R a_k)| < |Z(a_k / R)| c+/c-, and a set bit where
    |C/s + Z(a_k / R)| <= |Z(R a_k)| c-/c+.  Returns Z at each bit's signal
    point, written over ``inner``, and the (B, K) float ``thresholds``: the
    other point's |Z| times its ratio, one float up at a set bit, so that
    ``<`` decides a tie as the decoder does.  ``scratch`` is a (B, K) float
    buffer.  The decoder's floor at 1e-300 never binds here: Z would have
    to fall below it divided by s, and s > 1e-156 on the SNR grid.
    """
    c_outer, c_inner = _normalizers(radius, n)
    np.abs(outer, out=thresholds)
    thresholds *= c_inner / c_outer
    np.abs(inner, out=scratch)
    scratch *= c_outer / c_inner
    _select(mask[..., 0], thresholds, scratch)
    # The next float up from a non-negative finite float is its bit
    # pattern plus one: the mask subtracts -1 at the set bits.
    np.subtract(thresholds.view(np.int64), mask[..., 0], out=thresholds.view(np.int64))
    return _select(mask, inner, outer), thresholds


def _bit_errors(clean, signal, thresholds, scale: float, mix, mags) -> int:
    """The bit errors at noise scale ``scale`` > 0 of the bits given.

    ``clean``, ``signal`` and ``thresholds`` are arrays of one shape: the
    faded values C and the values of ``_signal_and_threshold``, of a whole
    block or of its open bits.  A bit errs where |C/s + Z| < its threshold,
    the decision's comparison divided by s.  One multiply-add into the
    complex ``mix``, one magnitude into the float ``mags``, one count.
    """
    np.multiply(clean, 1.0 / scale, out=mix)
    mix += signal
    np.abs(mix, out=mags)
    return int(np.count_nonzero(mags < thresholds))


# The screen's relative margin.  |C/s + Z| as ``_bit_errors`` computes it is
# within a few ulps of |C|/s + |Z| of its exact value, |C| for C = exp(L) is
# within a few more of e^(Re L), and the screen rounds three times: 1e-12
# covers all of them more than a hundred times over.  A bit inside the
# margin is left open, which costs only its exact test.
_SCREEN_MARGIN = 1e-12


def _open_bits(logs, signal, thresholds, scale: float, bounds, flags):
    """The flat indices of the bits that can err at noise scale ``scale`` or below.

    ``logs`` are the (B, K) faded logs L, and ``signal`` and ``thresholds``
    the values of ``_signal_and_threshold``.  |C/s + Z| >= |C|/s - |Z| >=
    |C|/``scale`` - |Z| at every s <= ``scale``, so a bit whose bound
    e^(Re L) (1 - margin) / ``scale`` reaches |Z| + its threshold is
    settled: it errs at no such point, whatever the phases.  The margin
    (``_SCREEN_MARGIN``) covers the rounding of both sides, so the
    inequality holds also for the values that ``_bit_errors`` computes.
    ``bounds`` is a (2, B, K) float buffer, for the bound and |Z| + T, and
    ``flags`` a (B, K) bool buffer.  The real ``exp`` costs about 1 ns a
    value, against 25-35 ns for the complex one that only the open bits
    get.
    """
    bound, floor = bounds
    # exp runs about three times faster on a contiguous copy of Re L
    np.copyto(bound, logs.real)
    np.exp(bound, out=bound)
    bound *= (1.0 - _SCREEN_MARGIN) / scale
    np.abs(signal, out=floor)
    floor += thresholds
    np.less(bound, floor, out=flags)
    return np.flatnonzero(flags)


def _screened_errors(logs, signal, thresholds, scales, spare, words, floats) -> list[int]:
    """The block's bit errors at each of the noise ``scales``, from its open bits.

    ``logs``, ``signal`` and ``thresholds`` are the block's (B, K) faded
    logs and the values of ``_signal_and_threshold``.  The screen
    (``_open_bits``) runs once, at the largest scale, and settles every
    bit that errs at none of them.  Only the open bits are gathered: C =
    exp(L) into the (B, K) complex ``spare``, which held the screen's
    bounds, Z into ``words`` (the free (B, K, 2) int64 mask, which held its
    flags) and the thresholds into the (B, K) float ``floats``.  The logs'
    and the thresholds' buffers then hold each point's C/s + Z and
    magnitudes (``_bit_errors``).  ``np.take`` writes each gather straight
    into its buffer under ``mode="clip"``; under the default mode it
    buffers ``out=``.
    """
    spare, words = spare.reshape(-1), words.reshape(-1).view(complex)
    bounds = spare.view(np.float64).reshape((2,) + logs.shape)
    flags = words.view(np.bool_)[: logs.size].reshape(logs.shape)
    index = _open_bits(logs, signal, thresholds, max(scales), bounds, flags)
    n = index.size
    clean = np.take(logs, index, out=spare[:n], mode="clip")
    np.exp(clean, out=clean)
    signal = np.take(signal, index, out=words[:n], mode="clip")
    thresholds_open = np.take(thresholds, index, out=floats.reshape(-1)[:n], mode="clip")
    mix, mags = logs.reshape(-1)[:n], thresholds.reshape(-1)[:n]
    return [_bit_errors(clean, signal, thresholds_open, s, mix, mags) for s in scales]


def _rows(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols values of a flat buffer as a (rows, cols) array."""
    return buffer[: rows * cols].reshape(rows, cols)


def _ber_task(cfg: SimConfig, table, blocks: range) -> list[int]:
    """The bit errors per SNR point of ``blocks``, one buffer set for them all.

    ``table`` is ``_bit_table(cfg.modulation)``.  ``conv`` holds the
    convolution (M a packet), then the fade's two channel grids, then z's
    drawn real and imaginary parts as floats, then z's two grids, of which
    the second holds the signal points' Z and the first the screen's bounds,
    then the open bits' C.  ``noise`` holds the logs' and the fade's
    scratch, then z (rx_len samples a packet), then the thresholds and, as
    floats, the open bits' thresholds behind them; the thresholds' own place
    then holds each point's magnitudes.  ``clean`` holds the logs L, then
    each point's C/s + Z.  ``mask`` holds the messages as floats, then the
    (B, K, 2) mask of ``_select``, then the screen's flags, then the open
    bits' Z.  Each is sized for the task's first block, its largest.
    """
    k = cfg.modulation.num_bits
    radius = cfg.modulation.outer_radius
    m_len = table[0]
    growth = _SELECTIVE_TAP_POWERS.size - 1  # samples a rician_selective packet gains
    rx_len = cfg.modulation.seq_len + (growth if cfg.channel_model == "rician_selective" else 0)
    scales = [math.sqrt(10.0 ** (-snr_db / 10.0) / k / 2.0) for snr_db in cfg.snr_grid_db]
    rows = min(_BER_BLOCK, cfg.trials - blocks.start * _BER_BLOCK)
    conv = np.empty(rows * max(m_len, rx_len), dtype=complex)
    clean = np.empty(rows * k, dtype=complex)
    noise = np.empty(rows * rx_len, dtype=complex)
    mask = np.empty(rows * k * 2, dtype=np.int64)
    floats = noise.view(np.float64)
    errors = [0] * len(scales)
    for block in blocks:
        rng = _rng_for(cfg.seed, 4, block)
        size = min(_BER_BLOCK, cfg.trials - block * _BER_BLOCK)
        msgs = rng.integers(0, 2, (size, k), dtype=np.int8)
        bit_floats = _rows(mask.view(np.float64), size, k)
        np.copyto(bit_floats, msgs)
        front, behind = _rows(floats, size, k), _rows(floats[size * k :], size, k)
        logs = _clean_logs(
            bit_floats, table, _rows(conv, size, m_len), front, _rows(clean, size, k)
        )
        bits = _rows(mask, size, 2 * k).reshape(size, k, 2)
        np.copyto(bits[..., 0], msgs)
        np.negative(bits[..., 0], out=bits[..., 0])
        np.copyto(bits[..., 1], bits[..., 0])
        grids = _rows(conv, 2 * size, k).reshape(2, size, k)
        _fade_batch(logs, bits, cfg.channel_model, rng, radius, grids, front)
        # z's real parts, then its imaginary parts, in one N(0, 1) draw:
        # the stream of awgn at variance 2
        parts = conv.view(np.float64)[: 2 * size * rx_len].reshape(2, size, rx_len)
        rng.standard_normal(out=parts)
        z = _rows(noise, size, rx_len)
        z.real, z.imag = parts
        eval_on_zero_grid(z, radius, k, out=grids[0])
        eval_on_zero_grid(z, 1.0 / radius, k, out=grids[1])
        signal, thresholds = _signal_and_threshold(
            grids[0], grids[1], bits, radius, rx_len, front, behind
        )
        counts = _screened_errors(logs, signal, thresholds, scales, grids[0], bits, behind)
        errors = [e + c for e, c in zip(errors, counts)]
    return errors


def run_ber(cfg: SimConfig) -> MonteCarloResult:
    """Bit error rate sweep of the noncoherent decoder over cfg.snr_grid_db.

    SNR is Eb/N0 with Eb = 1/K (unit packet energy over K payload bits), so
    the per-sample complex noise variance at SNR s dB is 10^(-s/10) / K.  The
    coherent BPSK reference Q(sqrt(2 Eb/N0)) is emitted alongside each point.

    Packets run in blocks of 128, each with one stream of its own that draws
    the block's messages, its fade and then one unit noise block z (real and
    imaginary parts N(0, 1)).  Every SNR point sees the same packets,
    channels and noise (common random numbers), scaled by
    s = sqrt(noise variance / 2).  The decoder reads each bit at two zero-grid
    points, and the packet's value is exactly 0 at one of them, so the
    samples are never built: each bit's log-value at the other point comes
    from its bits through one FFT convolution (``_clean_logs``), and the
    fade adds the log of the channel's value there (L, the log of C).  The
    decoder's grid values are linear in the samples, so z is evaluated on
    both grids once (Z), and the block keeps Z at each bit's signal point
    and a threshold from the other point's |Z| (``_signal_and_threshold``).
    A bit errs at a point where |C/s + Z| falls below its threshold, which
    is the decoder's own decision.  A magnitude screen at the grid's
    largest s settles the bits that err at no point, and only the others
    get C = exp(L) and each point's test (``_screened_errors``).
    A worker task (``_ber_task``) is 32 blocks, 4096 packets, the last one
    shorter; it runs every block in one buffer set and returns its bit
    errors per SNR point.
    """
    k = cfg.modulation.num_bits
    tasks = _split(-(-cfg.trials // _BER_BLOCK), _BER_TASK)
    task = partial(_ber_task, cfg, _bit_table(cfg.modulation))
    totals = [sum(counts) for counts in zip(*_parallel_map(task, tasks))]
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
    cfg: SimConfig, bf: Beamformer, task: tuple[int, tuple[TargetSpec, ...], int]
) -> tuple[int, list[dict], list[tuple[float, float, float]]]:
    """One coherent processing interval: frames, detection, and estimation.

    ``task`` is (sweep index, the point's target specs, trial index).

    The receiver reads the RF chains of frames 0..F-1 only at the delays
    detected on frame 0's combined row, so ``receive_radar`` draws those
    gated beam outputs after detection, exactly in distribution, and not at
    all when no cluster matches a target.  The Doppler phases are the
    combined row's outputs; each detected cell's angle is that of the one
    source that MUSIC finds in its own covariance, sum_f y_f y_f^H over its
    F gated outputs y_f, so the receiver reads no ground truth.  Two
    targets in one cell share that cell and its one angle.

    Returns the count of CFAR cells more than two cells from every target,
    then two lists with one entry per detected target, in target order: the
    sample record of its strongest cluster within two cells, and its
    (range, velocity, angle in degrees) errors against its ``TargetSpec``.
    A missed target is absent.
    """
    sweep_idx, specs, trial = task
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
    if not matched:
        # Nothing to estimate: ``rest`` would make the trial's last draws.
        return false_cells, [], []
    detected = []  # (spec, cell) of each detected target
    for spec, tc in zip(specs, true_cells):
        best = max((c for c in matched if near(c, tc)), key=lambda c: power[c], default=None)
        if best is not None:
            detected.append((spec, best))
    lags = [estimate_delay(spectrum, best) for _, best in detected]
    # The gated outputs (F, D, N_rf) in Q's basis.  Their kernels are the
    # transmitted frames amp * x_f, so frame 0's values take the same scale.
    gated = rest(lags, amp * correlation_value_at(spectrum, lags))
    phases = np.angle(gated[..., 0])  # (F, D)
    beams = gated @ bf.basis.T  # the same outputs in RF-chain coordinates
    num_sources = min(1, cfg.array.num_rf_chains - 1)

    unambiguous_m = SPEED_OF_LIGHT * cfg.frame_s / 2.0
    samples, errors = [], []
    for j, ((spec, best), lag) in enumerate(zip(detected, lags)):
        doppler_hat = (
            estimate_doppler(phases[:, j], frame_times) if n_frames >= 2 else float("nan")
        )
        cell = beams[:, j]
        angles = music_angles(
            cell.T @ cell.conj(), bf.rx_matrix, num_sources, cfg.schedule.segment
        )
        angle_hat = float(angles[0]) if angles.size else float("nan")
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
    phases across the CPI frames, and the angle from beam-domain MUSIC with
    one source on each detected cell's covariance of its gated beam outputs
    over the CPI.  A CPI draws frame 0's combined row, then, after
    detection, every frame's RF-chain outputs at the detected delays.  One
    record per sweep point; with no range_grid_m configured there is a
    single point at the scenario ranges.  Each (sweep point, trial) pair is
    one worker task, over all points at once.  A frame too short for the
    transmit sequence raises ValueError before any draw.
    """
    # Only the radar reads frame_len against the codeword.
    if cfg.frame_len < cfg.modulation.seq_len:
        raise ValueError("frame_len must cover the transmit sequence")
    specs = cfg.targets
    sweep = [(replace(specs[0], range_m=r),) for r in cfg.range_grid_m] or [specs]
    # The transmit beam and the receive beams are fixed by the scanned segment.
    bf = make_beamformers(cfg.schedule.segment, cfg.array)

    tasks = [(i, point, trial) for i, point in enumerate(sweep) for trial in range(cfg.trials)]
    results = _parallel_map(partial(_radar_trial, cfg, bf), tasks)
    records = []
    sample_detections: list[list[dict]] = []
    for sweep_idx, point_specs in enumerate(sweep):
        trials = results[sweep_idx * cfg.trials : (sweep_idx + 1) * cfg.trials]
        sample_detections.append(trials[0][1])
        errors = [e for _, _, trial_errors in trials for e in trial_errors]

        def rmse(column: int) -> float:
            sq = [e[column] ** 2 for e in errors if not math.isnan(e[column])]
            return math.sqrt(sum(sq) / len(sq)) if sq else float("nan")

        records.append({
            "range_m": float(point_specs[0].range_m) if point_specs else float("nan"),
            "detection_rate": (
                len(errors) / (cfg.trials * len(point_specs)) if point_specs else 0.0
            ),
            "rmse_range_m": rmse(0),
            "rmse_velocity_mps": rmse(1),
            "rmse_angle_deg": rmse(2),
            "false_alarm_rate": sum(f for f, _, _ in trials) / (cfg.trials * cfg.frame_len),
            "trials": cfg.trials,
        })
    extra = {"sample_detections": sample_detections}
    return MonteCarloResult(kind="radar", records=records, extra=extra)


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


def _cfar_task(cfg: SimConfig, chunks: range) -> int:
    """The OS-CFAR hits on ``chunks``, each drawn into one power buffer."""
    power = np.empty(_CFAR_CHUNK)
    hits = 0
    for idx in chunks:
        _rng_for(cfg.seed, 2, idx).standard_exponential(out=power)
        hits += len(os_cfar(power, cfg.cfar)[0])
    return hits


def run_cfar_calibration(cfg: SimConfig) -> MonteCarloResult:
    """Noise-only false-alarm rate of the configured OS-CFAR detector over
    ``trials * frame_len`` cells, rounded up to whole 65 536-cell chunks.

    The detector reads only cell power, and |z|^2 of CN(0, 1) noise is exactly
    Exp(1), so each chunk draws Exp(1) power from its own stream.  A worker
    task (``_cfar_task``) is 16 chunks, the last one shorter.  Returns the
    empirical rate with a 95% Wilson score interval.
    """
    total = cfg.trials * cfg.frame_len
    need = 100.0 / cfg.cfar.pfa
    if total < need:
        raise ValueError(
            f"insufficient cells: need at least {need:.0f} for pfa={cfg.cfar.pfa}"
        )
    n_chunks = -(-total // _CFAR_CHUNK)
    hits = sum(_parallel_map(partial(_cfar_task, cfg), _split(n_chunks, _CFAR_TASK)))
    n_cells = n_chunks * _CFAR_CHUNK
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
