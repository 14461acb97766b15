"""Radar detection and parameter estimation on correlation profiles.

The chain is: circular cross-correlation with the known transmit sequence,
ordered-statistic CFAR thresholding on correlation power, parabolic delay
refinement on a band-limited local grid of 64 points per cell, linear
multi-frame Doppler fitting, and beam-domain MUSIC for the angle of arrival.
Delay refinement and the Doppler phases take the cross-spectrum as input.
The zero-padded spectrum, the band-limited shift ramp and the ULA manifold
(``steering``) are ``channel``'s.  Delays are in cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import _delay_ramp, _padded_spectrum, _read_only, steering

__all__ = [
    "CfarConfig",
    "AmbiguitySurface",
    "cross_spectrum",
    "cross_correlate",
    "correlation_value_at",
    "calibrate_os_alpha",
    "os_cfar",
    "cluster_detections",
    "estimate_delay",
    "estimate_doppler",
    "sample_covariance",
    "music_angles",
    "ambiguity_function",
]


def cross_spectrum(reference, received) -> np.ndarray:
    """Cross-spectrum Y[k] X*[k] of received frames against the transmit sequence.

    Parameters
    ----------
    reference : array_like, shape (..., L)
        Transmit sequence; zero-padded up to the received frame length.
    received : array_like, shape (..., N)
        Received frame of N samples.  Leading axes of both arguments
        broadcast, so a CPI of F frames is one call.

    Returns
    -------
    ndarray, shape (..., N)
        The N-point DFT of the correlation profile that ``cross_correlate``
        returns; ``correlation_value_at`` and ``estimate_delay`` take it.
    """
    y = np.fft.fft(np.asarray(received, dtype=complex), axis=-1)
    ref = _padded_spectrum(reference, y.shape[-1])
    np.conj(ref, out=ref)
    # In place where the received spectra already have the broadcast shape.
    in_place = y.shape == np.broadcast_shapes(y.shape, ref.shape)
    return np.multiply(y, ref, out=y if in_place else None)


def cross_correlate(reference, received) -> np.ndarray:
    """Circular cross-correlation zeta[n] = sum_m ref*[m-n] y[m].

    The inverse DFT of ``cross_spectrum(reference, received)``, with the same
    arguments and broadcasting; returns the complex (..., N) profile.  Matches
    the direct O(N^2) double sum to better than 1e-9 relative error.
    """
    return np.fft.ifft(cross_spectrum(reference, received), axis=-1)


def correlation_value_at(spectrum, lag_samples) -> complex | np.ndarray:
    """Band-limited interpolation of correlation profiles at fractional lags.

    Evaluates (1/N) sum_k Z[k] exp(2i pi f_k lag) on the FFT frequencies f_k
    for (..., N) spectra Z, one per frame as ``cross_spectrum`` returns.  The
    lags are (..., D), and their leading axes broadcast against the
    spectra's: a (D,) list reads every spectrum at every lag, and a (P, 1)
    stack reads spectrum p at lag p only.  The result has the broadcast
    leading axes, then the lag axis unless the lag is 0-d.  The exponential
    is the delay ramp of a shift by -lag.
    """
    spec = np.asarray(spectrum, dtype=complex)
    lags = np.asarray(lag_samples, dtype=float)
    n = spec.shape[-1]
    if lags.ndim < 2:  # one lag list for every spectrum: a single product
        return spec @ _delay_ramp(n, -lags) / n
    lead = np.broadcast_shapes(spec.shape[:-1], lags.shape[:-1])
    ramp = _delay_ramp(n, -np.broadcast_to(lags, lead + lags.shape[-1:]))  # (N, ..., D)
    # Each spectrum times its own lags' ramps, in the ramps' place, then
    # summed over the frequencies.
    np.multiply(np.moveaxis(np.broadcast_to(spec, lead + (n,)), -1, 0)[..., None], ramp, out=ramp)
    return ramp.sum(axis=0) / n


# os_rank = 1 at the smallest normal pfa, the slowest case, takes ~140 steps.
_NEWTON_MAX_STEPS = 1000


def calibrate_os_alpha(window: int, os_rank: int, pfa: float) -> float:
    """Threshold multiplier alpha for OS-CFAR on exponential noise power.

    Solves pfa = prod_{i=0}^{k-1} (M - i) / (M - i + alpha) with M = 2*window
    reference cells and rank k by Newton's method on
    log(pfa) = -sum_i log1p(alpha / (M - i)). That function is convex and
    decreasing in alpha, so the iteration, started from alpha = 0, climbs to
    the root from below without overshooting; it stops when a step no longer
    moves alpha. Alpha has no upper bound: a pfa whose alpha would exceed the
    float range raises ValueError.
    """
    m_ref = 2 * window
    if not 1 <= os_rank <= m_ref:
        raise ValueError("need 1 <= os_rank <= 2*window")
    if not 0.0 < pfa <= 1.0:
        raise ValueError("pfa must lie in (0, 1]")
    ref = m_ref - np.arange(os_rank, dtype=float)
    target = -math.log(pfa)
    alpha = 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        excess = target - float(np.sum(np.log1p(alpha / ref)))
        step = excess / float(np.sum(1.0 / (ref + alpha)))
        if step <= 0.0 or alpha + step == alpha:
            return alpha
        alpha += step
        if math.isinf(alpha):
            raise ValueError(f"pfa={pfa!r} needs a threshold multiplier beyond float range")
    raise RuntimeError("threshold multiplier did not converge")


@dataclass(frozen=True)
class CfarConfig:
    """Ordered-statistic CFAR parameters; alpha derived from pfa when omitted."""

    window: int = 12
    guard: int = 2
    os_rank: int = 18
    pfa: float = 1e-4
    alpha: float = field(default=float("nan"))

    def __post_init__(self):
        if self.window < 1 or self.guard < 0:
            raise ValueError("window must be >= 1 and guard >= 0")
        if not 1 <= self.os_rank <= 2 * self.window:
            raise ValueError("need 1 <= os_rank <= 2*window")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError("pfa must lie in (0, 1)")
        if math.isnan(self.alpha):
            object.__setattr__(
                self, "alpha", calibrate_os_alpha(self.window, self.os_rank, self.pfa)
            )
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")


# Largest expected share of cells, under Exp(1) noise, for which os_cfar
# counts the second half of the references in a second stage.  Timed on
# 65 536 Exp(1) cells (2-core Xeon, numpy 2.4.6, windows 1 to 12, every
# rank above the window, pfa 1e-2 to 1e-6), two stages took 1.04-2.8x the
# one pass at shares above 5 %, and 0.62-0.98x at 5 % and less but for
# (4, 5) at pfa 1e-6 (4.4 %, 1.03x).
_STAGE_TWO_SHARE = 0.05


def _stage_two_share(config: CfarConfig) -> float:
    """Expected share of Exp(1) noise cells that reach ``os_cfar``'s second stage.

    A cell gets there with at least m = os_rank - window hits among the
    window references before it.  Each comparison alpha * ref < power holds
    with probability 1/(1+alpha), but all of them read the cell's power:
    the cell gets there when its power exceeds alpha times the m-th
    smallest of window Exp(1) references, with probability
    prod_{i<m} (window - i) / (window - i + alpha), the OS-CFAR false-alarm
    probability over window references at rank m (1 when m <= 0).
    """
    window = config.window
    return math.prod(
        (window - i) / (window - i + config.alpha) for i in range(config.os_rank - window)
    )


def os_cfar(power, config: CfarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ordered-statistic CFAR on real correlation power |zeta|^2, frame by frame.

    ``power`` is one (N,) frame or a (..., N) stack of frames, each tested
    on its own circular frame.  Callers square the profile (calibration
    draws the power directly); a complex or 0-d input raises ValueError.
    For every cell the threshold is alpha times the os_rank-th smallest of
    the 2*window reference powers (guard cells excluded, circular wrap).

    The test runs as a rank count.  Multiplying by alpha >= 0 is monotone in
    floating point, so alpha * kth is the os_rank-th smallest of the scaled
    references, and ``power[c] > alpha * kth[c]`` holds exactly when at
    least os_rank of the 2*window values ``alpha * ref`` lie below
    ``power[c]``.  The comparisons read shifted views of one circularly
    extended copy of ``alpha * power``, ``window + guard`` cells longer at
    each end.  When at most 5 % of Exp(1) noise cells are expected to
    reach the second stage (``_stage_two_share``), the count runs in two
    stages: the window references before every cell first, then the window
    after it only for the cells within window of os_rank.  Both stages make
    the same comparisons, so the result is exact.  Otherwise too many cells
    would reach the second stage, and one pass counts all 2*window.  The
    threshold, the os_rank-th smallest of the scaled references (alpha * kth
    by the same monotonicity), is read from that copy for the detected cells
    only.  A stack runs as one pass over its rows, each row extended on its
    own, so every row's result is bitwise that of a call on the row alone.

    Returns the detected cells as ascending indices into the flattened
    stack, as ``np.flatnonzero`` gives them, so for one frame they are its
    cells, and ``np.divmod(cells, N)`` splits a stack's into rows and cells;
    then their thresholds alpha * kth.
    """
    power = np.asarray(power)
    if power.ndim < 1 or np.iscomplexobj(power):
        raise ValueError(f"CFAR needs real power frames, got {power.dtype} of shape {power.shape}")
    n = power.shape[-1]
    window, rank = config.window, config.os_rank
    reach = window + config.guard
    if n < 2 * reach + 1:
        raise ValueError(f"frame of {n} cells shorter than CFAR span {2 * reach + 1}")
    one_side = np.arange(config.guard + 1, reach + 1)
    offsets = np.concatenate([-one_side, one_side])

    shape = power.shape[:-1] + (n + 2 * reach,)
    wrapped = np.empty(shape, dtype=np.result_type(config.alpha, power))
    np.multiply(config.alpha, power, out=wrapped[..., reach : reach + n])
    wrapped[..., :reach] = wrapped[..., n : n + reach]
    wrapped[..., reach + n :] = wrapped[..., reach : 2 * reach]
    first = window if _stage_two_share(config) <= _STAGE_TWO_SHARE else offsets.size
    below = np.empty(power.shape, dtype=bool)
    count = np.zeros(power.shape, dtype=np.min_scalar_type(offsets.size))
    for off in offsets[:first]:
        np.less(wrapped[..., reach + off : reach + off + n], power, out=below)
        count += below.view(np.uint8)  # as integers, without a cast per element
    cells = np.nonzero(count.reshape(-1) >= rank - (offsets.size - first))[0]
    # Each cell's place in the flattened wrapped copy, less reach: every row
    # before the cell's adds its 2 * reach extension (none for one frame).
    at = cells + cells // n * (2 * reach) if power.ndim > 1 else cells
    flat = wrapped.reshape(-1)
    count, cell_power = count.reshape(-1)[cells], power.reshape(-1)[cells]
    for off in offsets[first:]:
        count += flat[reach + off :][at] < cell_power
    keep = count >= rank
    cells, at = cells[keep], at[keep]

    ref = flat[reach + at[:, None] + offsets]
    return cells, np.partition(ref, rank - 1, axis=1)[:, rank - 1]


_CLUSTER_GAP = 2  # cells


def cluster_detections(cells: np.ndarray, power: np.ndarray, frame_len: int) -> list[int]:
    """Merge runs of adjacent detected cells, keeping the strongest cell of each run.

    ``cells`` are ascending, as ``os_cfar`` returns them, and ``power`` is
    the power the detector read.  Cells at most two apart join one run.
    They lie on a circular frame of ``frame_len`` cells, as in ``os_cfar``,
    so a run that ends near the last cell joins one that starts near cell 0.
    """
    ordered = cells.tolist()
    if not ordered:
        return []
    runs = [[ordered[0]]]
    for cell in ordered[1:]:
        if cell - runs[-1][-1] <= _CLUSTER_GAP:
            runs[-1].append(cell)
        else:
            runs.append([cell])
    if len(runs) > 1 and runs[0][0] + frame_len - runs[-1][-1] <= _CLUSTER_GAP:
        runs[0] = runs.pop() + runs[0]
    return [max(run, key=lambda c: power[c]) for run in runs]


def _parabolic_offset(y_minus, y_center, y_plus) -> np.ndarray:
    # Vertex of the parabola through three equispaced points, clamped to half
    # a cell; exact for any true quadratic triple, 0 for a flat one.  Each
    # argument is one value or an array of them.
    denom = np.asarray(y_minus - 2.0 * y_center + y_plus)
    vertex = np.divide(0.5 * (y_minus - y_plus), denom, out=np.zeros(denom.shape), where=denom != 0)
    return np.clip(vertex, -0.5, 0.5)


# Delay refinement grid points per cell.  A full-bandwidth waveform's peak
# is about one cell wide, too narrow for a parabola through whole cells.
_REFINE = 64


@lru_cache(maxsize=4)
def _refine_kernel(n: int) -> np.ndarray:
    # Row k evaluates the band-limited profile k/_REFINE cells after the
    # cell the spectrum is shifted to: the delay ramp of a shift by
    # -k/_REFINE.  Read-only, since every caller shares it.
    offsets = np.arange(2 * _REFINE + 1) / _REFINE
    return _read_only(np.ascontiguousarray(_delay_ramp(n, -offsets).T))[0]


def estimate_delay(spectrum, peak_cell) -> float | np.ndarray:
    """Delay in cells from correlation peaks with sub-cell interpolation.

    Parameters
    ----------
    spectrum : array_like, shape (..., N)
        N-point DFTs of circular correlation profiles, as ``cross_spectrum``
        returns them, one per frame.
    peak_cell : int or array_like of int, shape (...)
        Index of each profile's magnitude maximum; its axes broadcast
        against the spectra's leading axes.

    Returns
    -------
    float, or ndarray of the broadcast leading shape
        Grid point + offset, in cells.  The band-limited |zeta(t)| is evaluated
        on a fixed grid of 64 points per cell, from one cell before the peak
        to one cell after it, and a parabola is fitted to the largest grid
        value and its two neighbours; the offset is clamped to half a grid
        step.  The grid comes from a (129, N) kernel cached per N and one
        N-point phase ramp per profile that shifts its spectrum to the grid
        start, so P profiles cost one (129, N) x (N, P) product.
    """
    spec = np.asarray(spectrum, dtype=complex)
    if spec.ndim < 1 or spec.shape[-1] < 3:
        raise ValueError(f"delay refinement needs spectra of >= 3 cells, got {spec.shape}")
    n = spec.shape[-1]
    lead = np.broadcast_shapes(spec.shape[:-1], np.shape(peak_cell))
    start = np.broadcast_to(np.asarray(peak_cell) - 1, lead)
    ramp = _delay_ramp(n, -start)  # (N, ...), frequencies first
    # Each spectrum shifted to its grid start, in the ramp's place.
    np.multiply(np.moveaxis(np.broadcast_to(spec, lead + (n,)), -1, 0), ramp, out=ramp)
    vals = np.abs(np.tensordot(_refine_kernel(n), ramp, 1)) / n  # (129, ...)
    j = np.clip(np.argmax(vals, axis=0), 1, len(vals) - 2)[None]
    offset = _parabolic_offset(*(np.take_along_axis(vals, j + d, axis=0) for d in (-1, 0, 1)))
    delay = (start + (j + offset)[0] / _REFINE)[()]
    return float(delay) if delay.ndim == 0 else delay


def estimate_doppler(peak_phases, frame_times) -> float | np.ndarray:
    """Doppler from per-frame correlation-peak phases, in cycles per unit of ``frame_times``.

    ``peak_phases`` is (..., F), one row of F frame phases per estimate.
    Unwraps each row and fits a least-squares line; the slope over 2*pi is
    the Doppler estimate, a float for one row and an array of the leading
    shape for a stack.  The estimate is unambiguous for
    |doppler| < 1/(2 * min frame spacing).
    """
    phases = np.unwrap(np.asarray(peak_phases, dtype=float), axis=-1)
    times = np.asarray(frame_times, dtype=float)
    if phases.ndim < 1 or phases.shape[-1] != times.size:
        raise ValueError("need one phase per frame time")
    if times.size < 2:
        raise ValueError("Doppler estimation needs at least two frames")
    t_bar = times.mean()
    p_bar = phases.mean(axis=-1, keepdims=True)
    denom = np.sum((times - t_bar) ** 2)
    if denom == 0:
        raise ValueError("frame times must not be all identical")
    slope = np.sum((times - t_bar) * (phases - p_bar), axis=-1) / denom
    doppler = slope / (2.0 * np.pi)
    return float(doppler) if doppler.ndim == 0 else doppler


def sample_covariance(rx: np.ndarray) -> np.ndarray:
    """Sample covariance (1/N) sum_n y[n] y[n]^H over every snapshot of the input.

    ``rx`` is a (N_rf, N) signal block or a (..., N_rf, N) stack of blocks,
    such as the F frames of a CPI, whose snapshots are all pooled.  Each
    block is one batched product with its own conjugate transpose, and the
    blocks are summed; the input is not copied into one (N_rf, F*N) matrix.
    """
    y = np.atleast_2d(np.asarray(rx, dtype=complex))
    n_rf, n = y.shape[-2:]
    blocks = y.reshape(math.prod(y.shape[:-2]), n_rf, n)
    snapshots = blocks.shape[0] * n
    if snapshots < 1:
        raise ValueError("need at least one snapshot")
    cov = np.matmul(blocks, blocks.conj().swapaxes(-1, -2)).sum(axis=0) / snapshots
    return 0.5 * (cov + cov.conj().T)


_MUSIC_GRID_DEG = 0.5  # scan step
_MUSIC_STEP = math.radians(_MUSIC_GRID_DEG)


@lru_cache(maxsize=4)
def _music_scan(rx_bytes: bytes, shape: tuple[int, int], segment: tuple[float, float]):
    # The scan grid over the segment, the beam manifold U^H a(phi) on it and
    # that manifold's energy per angle, for the (N_a, N_rf) complex U whose
    # bytes are rx_bytes.  Read-only, since every covariance shares them.
    rx_matrix = np.frombuffer(rx_bytes, dtype=complex).reshape(shape)
    lo, hi = segment
    grid = np.arange(lo, hi + _MUSIC_STEP / 2, _MUSIC_STEP)
    grid = np.clip(grid, -np.pi / 2, np.pi / 2)
    beam_manifold = rx_matrix.conj().T @ steering(grid, shape[0])
    energy = (np.abs(beam_manifold) ** 2).sum(axis=0)
    return _read_only(grid, beam_manifold, energy)


def music_angles(
    cov: np.ndarray, rx_matrix: np.ndarray, num_sources: int, segment: tuple[float, float]
) -> np.ndarray:
    """Beam-domain MUSIC angle estimates from an RF-chain covariance matrix.

    Parameters
    ----------
    cov : ndarray, shape (..., N_rf, N_rf)
        Sample covariance of the reduced receive signal, or any positive
        multiple of it: the noise subspace does not depend on the scale.
        The radar passes each detected cell's unnormalised gated sum
        sum_f y_f y_f^H, all of a block's cells as one stack.
    rx_matrix : ndarray, shape (N_a, N_rf)
        Reduction matrix U mapping antennas to RF chains.
    num_sources : int
        Assumed source count Q; must satisfy Q < N_rf.
    segment : (low, high) radians
        Angular interval to scan, in steps of 0.5 degrees.

    Returns
    -------
    ndarray, shape (..., Q)
        Q angles in radians per covariance, strongest pseudo-spectrum peak
        first, each refined by parabolic interpolation of the log
        pseudo-spectrum; NaN where the scan has fewer than Q peaks at least
        two grid steps apart.

    Notes
    -----
    The pseudo-spectrum is normalized by the beam-domain manifold energy,
    P(phi) = ||U^H a(phi)||^2 / ||E_n^H U^H a(phi)||^2.  Without that
    normalization every angle where the selected beams have negligible gain
    produces a spurious peak, because a vanishing manifold vector also has a
    vanishing noise-subspace projection.  The grid, U^H a(phi) and its
    energy depend only on U and the segment, so they are computed once per
    (U, segment) and shared by every covariance.  A stack takes one stacked
    ``eigh`` and one stacked product, and its peaks are picked
    for every covariance at once, strongest first: each pick is the
    strongest remaining peak, and the peaks closer than two grid steps to
    it leave the running.
    """
    cov = np.asarray(cov, dtype=complex)
    n_rf = cov.shape[-1]
    if num_sources >= n_rf:
        raise ValueError("source count must be smaller than the RF chain count")
    estimates = np.full(cov.shape[:-2] + (num_sources,), np.nan)
    if num_sources == 0:
        return estimates
    _, vecs = np.linalg.eigh(cov)
    noise_basis = vecs[..., : n_rf - num_sources]

    rx = np.asarray(rx_matrix, dtype=complex)
    lo, hi = segment
    grid, beam_manifold, manifold_energy = _music_scan(
        rx.tobytes(), rx.shape, (float(lo), float(hi))
    )
    proj = np.abs(noise_basis.conj().swapaxes(-1, -2) @ beam_manifold) ** 2
    pseudo = manifold_energy / np.maximum(proj.sum(axis=-2), 1e-30)

    log_p = np.log(pseudo)
    open_peaks = np.zeros(log_p.shape, dtype=bool)
    open_peaks[..., 1:-1] = (log_p[..., 1:-1] > log_p[..., :-2]) & (
        log_p[..., 1:-1] >= log_p[..., 2:]
    )
    min_sep = 2  # grid cells; peaks closer than this are one source
    steps = np.arange(grid.size)
    for q in range(num_sources):
        idx = np.argmax(np.where(open_peaks, log_p, -np.inf), axis=-1)[..., None]
        found = np.take_along_axis(open_peaks, idx, axis=-1)[..., 0]
        offset = _parabolic_offset(
            *(np.take_along_axis(log_p, np.clip(idx + d, 0, grid.size - 1), axis=-1)
              for d in (-1, 0, 1))
        )
        estimates[..., q] = np.where(found, (grid[idx] + offset * _MUSIC_STEP)[..., 0], np.nan)
        open_peaks &= np.abs(steps - idx) >= min_sep
    return estimates


@dataclass(frozen=True)
class AmbiguitySurface:
    """|AF| over (lag, Doppler) with the axes used to build it."""

    values: np.ndarray  # (n_lags, n_bins) magnitudes
    lags: np.ndarray  # integer lags, ascending
    doppler_cycles: np.ndarray  # Doppler in cycles/sample, ascending


def ambiguity_function(samples, max_lag: int, doppler_bins: int) -> AmbiguitySurface:
    """Discrete ambiguity surface |sum_n x[n] x*[n-l] e^{2i pi p n / P}|.

    Lags run -max_lag..max_lag and Doppler bins p run over a centered window
    of size P = doppler_bins.  The p = 0 column equals the magnitude of the
    aperiodic autocorrelation, and |AF| is symmetric under (l, p) -> (-l, -p).
    """
    x = np.asarray(samples, dtype=complex)
    n = x.size
    if not 0 <= max_lag <= n - 1:
        raise ValueError("max_lag must lie in [0, len(x) - 1]")
    if doppler_bins < 1:
        raise ValueError("doppler_bins must be positive")
    lags = np.arange(-max_lag, max_lag + 1)
    # Row i is x[m] x*[m - lags[i]], zero where m - lags[i] leaves the frame.
    pad = np.zeros(max_lag, dtype=complex)
    prods = x * sliding_window_view(np.concatenate((pad, np.conj(x), pad)), n)[::-1]
    p = np.arange(doppler_bins) - doppler_bins // 2
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), p) / doppler_bins)
    return AmbiguitySurface(
        values=np.abs(prods @ phases),
        lags=lags,
        doppler_cycles=p / doppler_bins,
    )
