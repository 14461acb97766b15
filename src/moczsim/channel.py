"""Uniform-linear-array steering, hybrid beamforming, and discrete-time channels.

The array is a half-wavelength ULA.  Transmit beamforming is a single matched
beam per angular segment; receive reduction selects a few orthonormal DFT
codebook beams around the segment.  Channel application realizes fractional
delays in samples by a spectral phase ramp on the zero-padded frame
(band-limited interpolation under ideal Nyquist pulse shaping) and Doppler
in cycles per sample as a per-sample phase ramp on the output grid.  The
zero-padded spectrum and that ramp, exp(-2i pi f s) for a shift by s, are
defined here once and ``radar`` reads both: its interpolation at a lag l is
the ramp at s = -l.  ``steering`` is the one form of the array manifold, for
one angle or many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "ArrayConfig",
    "Beamformer",
    "LinkBudget",
    "RadarTarget",
    "steering",
    "dft_codebook",
    "make_beamformers",
    "radar_gain",
    "fractional_delay",
    "apply_radar_channel",
    "receive_radar",
    "awgn",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre
_ANGLE_TOL = 1e-12
DB_LIMIT = 3082  # largest |x| dB whose ratio 10 ** (x / 10) is a finite float


def steering(angle_rad, num_antennas: int) -> np.ndarray:
    """ULA response a_n = exp(i*(n-1)*pi*sin(angle)), n = 1..N_a: (N_a,) for
    one angle, (N_a, A) for an array of A angles.  A NaN angle raises."""
    if not np.all(np.abs(angle_rad) <= np.pi / 2 + _ANGLE_TOL):
        raise ValueError(f"steering angle must lie in [-pi/2, pi/2], got {angle_rad}")
    if num_antennas < 1:
        raise ValueError("array needs at least one antenna")
    return np.exp(1j * np.pi * np.multiply.outer(np.arange(num_antennas), np.sin(angle_rad)))


@dataclass(frozen=True)
class ArrayConfig:
    """Half-wavelength ULA with a reduced number of RF chains."""

    num_antennas: int = 64
    num_rf_chains: int = 4

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be positive")
        if not 1 <= self.num_rf_chains <= self.num_antennas:
            raise ValueError("need 1 <= num_rf_chains <= num_antennas")


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm Tx beam, orthonormal Rx reduction U, unitary Q = [c, B] whose
    first column ``basis[:, 0]`` is the unit-norm combiner c."""

    tx_beam: np.ndarray
    rx_matrix: np.ndarray
    basis: np.ndarray


def dft_codebook(num_antennas: int):
    """Orthonormal DFT beam codebook of size D = N_a.

    Returns (broadside angles ascending, matrix of unit-norm columns).  Beam d
    points at sin(angle) = 2*d/D for d in [-D/2, D/2).
    """
    d = np.arange(num_antennas) - num_antennas // 2
    angles = np.arcsin(2.0 * d / num_antennas)
    return angles, steering(angles, num_antennas) / math.sqrt(num_antennas)


def make_beamformers(segment: tuple[float, float], cfg: ArrayConfig) -> Beamformer:
    """Beams for the scanned ``(low, high)`` segment, in radians.

    The Tx beam is matched to the segment center, the Rx reduction keeps the
    N_rf nearest DFT beams, the combiner is U^H a(center) at unit norm, and
    the basis is a unitary matrix whose first column is the combiner.
    Codebook beams are ranked by distance of their broadside direction to the
    segment interval, with ties broken by distance to the center and then by
    codebook index, so the selection is deterministic.
    """
    lo, hi = segment
    center = (lo + hi) / 2.0
    a = steering(center, cfg.num_antennas)
    angles, book = dft_codebook(cfg.num_antennas)
    half = abs(hi - lo) / 2.0
    dist_interval = np.maximum(0.0, np.abs(angles - center) - half)
    dist_center = np.abs(angles - center)
    order = np.lexsort((np.arange(angles.size), dist_center, dist_interval))
    rx_matrix = book[:, np.sort(order[: cfg.num_rf_chains])]
    combiner = rx_matrix.conj().T @ a
    combiner /= np.linalg.norm(combiner)
    # Householder QR of [c, I] spans c with its first column, up to a unit phase.
    basis = np.linalg.qr(np.column_stack([combiner, np.eye(cfg.num_rf_chains)]))[0]
    basis[:, 0] = combiner
    return Beamformer(a / math.sqrt(cfg.num_antennas), rx_matrix, basis)


@dataclass(frozen=True)
class LinkBudget:
    """Physical-layer constants of one deployment."""

    eirp_dbm: float = 35.0
    carrier_hz: float = 60.0e9
    bandwidth_hz: float = 100.0e6
    noise_psd: float = 2.0e-21  # W/Hz

    def __post_init__(self):
        for name in ("carrier_hz", "bandwidth_hz", "noise_psd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not abs(self.eirp_dbm) <= DB_LIMIT:
            raise ValueError(f"eirp_dbm must lie within +-{DB_LIMIT} dB, got {self.eirp_dbm}")
        if not math.isfinite(self.wavelength * self.wavelength):
            raise ValueError(f"carrier_hz = {self.carrier_hz} is too low: wavelength**2 overflows")
        if not math.isfinite(self.noise_variance):
            raise ValueError(f"noise_psd * bandwidth_hz must be finite, got {self.noise_variance}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def sample_period(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def eirp_watts(self) -> float:
        return 10.0 ** ((self.eirp_dbm - 30.0) / 10.0)

    @property
    def noise_variance(self) -> float:
        """Noise power per complex sample per RF chain, N0 * W."""
        return self.noise_psd * self.bandwidth_hz


def radar_gain(link: LinkBudget, rcs_dbsm: float, range_m: float) -> float:
    """Two-way power gain |rho|^2 = lambda^2 sigma / ((4 pi)^3 r^4)."""
    if range_m <= 0:
        raise ValueError("target range must be positive")
    sigma = 10.0 ** (rcs_dbsm / 10.0)
    return link.wavelength**2 * sigma / ((4.0 * np.pi) ** 3 * range_m**4)


@dataclass(frozen=True)
class RadarTarget:
    """Backscatter path: complex gain, angle, round-trip delay in samples,
    Doppler shift in cycles per sample."""

    gain: complex
    angle_rad: float
    delay: float
    doppler: float

    def __post_init__(self):
        if not self.delay >= 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if not abs(self.angle_rad) <= np.pi / 2 + _ANGLE_TOL:
            raise ValueError(f"target angle must lie in [-pi/2, pi/2], got {self.angle_rad}")
        if not math.isfinite(self.doppler):
            raise ValueError(f"doppler must be finite, got {self.doppler}")

    @classmethod
    def from_geometry(
        cls,
        link: LinkBudget,
        range_m: float,
        velocity_mps: float,
        angle_deg: float,
        rcs_dbsm: float,
        phase_rad: float,
    ) -> "RadarTarget":
        """Physical path from range/velocity/angle: delay 2 r / (c T) samples and
        two-way Doppler 2 v f_c T / c cycles per sample, T = ``link.sample_period``."""
        amp = math.sqrt(radar_gain(link, rcs_dbsm, range_m))
        return cls(
            gain=amp * np.exp(1j * phase_rad),
            angle_rad=math.radians(angle_deg),
            delay=2.0 * range_m / SPEED_OF_LIGHT / link.sample_period,
            doppler=2.0 * velocity_mps * link.carrier_hz / SPEED_OF_LIGHT * link.sample_period,
        )


def _padded_spectrum(samples, out_len: int) -> np.ndarray:
    """The ``out_len``-point DFT of each zero-padded frame of ``samples`` (..., L)."""
    x = np.asarray(samples, dtype=complex)
    if int(out_len) < x.shape[-1]:
        raise ValueError("out_len must not truncate the input")
    return np.fft.fft(x, int(out_len), axis=-1)


def _delay_ramp(n: int, shift_samples) -> np.ndarray:
    """The spectrum exp(-2i pi f shift) of a band-limited circular delay on the
    n FFT frequencies f: (n,) for a scalar shift, (n, S) for S shifts."""
    ramp = -2j * np.pi * np.multiply.outer(np.fft.fftfreq(n), shift_samples)
    return np.exp(ramp, out=ramp)


def fractional_delay(samples, shift_samples: float, out_len: int) -> np.ndarray:
    """Band-limited delay by ``shift_samples`` on a frame of ``out_len`` samples.

    Implemented as a phase ramp on the spectrum of the zero-padded frame; the
    shift is circular on that frame, so energy is conserved exactly for any
    fractional shift.  Leading axes of ``samples`` are independent frames.
    """
    ramp = _delay_ramp(int(out_len), float(shift_samples))
    return np.fft.ifft(_padded_spectrum(samples, out_len) * ramp, axis=-1)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=16)
def _target_ramps(n: int, delay: float, doppler: float):
    # A target's delay ramp on the spectrum and its per-sample Doppler ramp
    # on frames of n samples.  Read-only, since every trial shares them.
    return _read_only(_delay_ramp(n, delay), np.exp(2j * np.pi * doppler * np.arange(n)))


def _target_gains(targets, bf: Beamformer, start) -> np.ndarray:
    """The (B, ..., T, N_rf) gains rho_q U^H a(phi_q) a^H(phi_q) f e^{2i pi nu_q start}
    of B trials' targets on frames whose sample 0 is sample ``start`` (...)
    of the clock.  ``targets`` is B sequences of T targets that differ only
    in their gains rho_q, so the array terms are formed once per target."""
    num_antennas, n_rf = bf.rx_matrix.shape
    rho = np.array([[tg.gain for tg in trial] for trial in targets], dtype=complex)  # (B, T)
    gains = np.empty(rho.shape[:1] + np.shape(start) + (rho.shape[1], n_rf), dtype=complex)
    frames = (slice(None),) + (None,) * np.ndim(start)
    for q, tg in enumerate(targets[0]):
        a = steering(tg.angle_rad, num_antennas)
        spatial = rho[:, q, None] * (bf.rx_matrix.conj().T @ a) * (a.conj() @ bf.tx_beam)
        gains[..., q, :] = np.exp(2j * np.pi * tg.doppler * start)[..., None] * spatial[frames]
    return gains


def _delayed_waveforms(spectrum, targets) -> np.ndarray:
    """The (..., T, N) waveforms s[k - tau_q] e^{2i pi nu_q k} of the frames
    whose N-point spectrum is ``spectrum`` (..., N)."""
    n = spectrum.shape[-1]
    delayed = np.empty(spectrum.shape[:-1] + (len(targets), n), dtype=complex)
    for q, tg in enumerate(targets):
        delay_ramp, doppler_ramp = _target_ramps(n, tg.delay, tg.doppler)
        wave = delayed[..., q, :]
        np.multiply(spectrum, delay_ramp, out=wave)
        np.fft.ifft(wave, axis=-1, out=wave)
        wave *= doppler_ramp
    return delayed


def apply_radar_channel(samples, targets, bf: Beamformer, frame_len: int, start=0) -> np.ndarray:
    """The (..., N_rf, N) response to (..., L) transmit ``samples`` on frames of ``frame_len``.

    y[k] = sum_q rho_q U^H a(phi_q) a^H(phi_q) f s[k - tau_q] e^{2i pi nu_q (start + k)}.
    The leading axes of ``samples`` index frames; ``start`` (...) is the
    sample of the clock at each frame's sample 0, so Doppler stays coherent
    across frames; delays wrap circularly on frames of N samples.  Each
    target's response is rank one per frame: its gains (..., T, N_rf),
    rho_q U^H a(phi_q) a^H(phi_q) f e^{2i pi nu_q start}, times its delayed,
    Doppler-ramped waveform (..., T, N), s[k - tau_q] e^{2i pi nu_q k}.  The
    Doppler factor splits into a per-frame phase and one per-sample ramp, so
    a target costs F + N complex exponentials, not F*N, and its two ramps
    are computed once per (N, delay, Doppler).
    """
    spectrum = _padded_spectrum(samples, frame_len)
    delayed = _delayed_waveforms(spectrum, targets)
    start = np.broadcast_to(np.asarray(start, dtype=float), spectrum.shape[:-1])
    return np.swapaxes(_target_gains([targets], bf, start)[0], -1, -2) @ delayed


def _lag_size(length: int) -> int:
    # The least power of two M >= 2 L - 1: M points hold every lag
    # -(L-1)..L-1 between two codewords of L samples without aliasing.
    return 1 << (2 * length - 2).bit_length()


def _lag_spectrum(kernels, length: int) -> np.ndarray:
    """The (..., M) ``ifft_M`` of the circular ``kernels`` (..., n) read at
    the lags d = -(L-1)..L-1 (mod n), lag d placed at d mod M, M =
    ``_lag_size(length)``: for codewords u, x of L samples,
    sum_{m, m'} u[m] kernel[(m - m') mod n] x[m'] is
    sum_k fft_M(u) conj(fft_M(conj x)) times it."""
    n = kernels.shape[-1]
    m = _lag_size(length)
    window = np.zeros(kernels.shape[:-1] + (m,), dtype=complex)
    window[..., :length] = kernels[..., :length]
    window[..., m - length + 1 :] = kernels[..., n - length + 1 :]
    return np.fft.ifft(window, axis=-1, out=window)


@lru_cache(maxsize=8)
def _gram_side(n: int, length: int, delay: float, doppler: float):
    # A target's factors of its cross-Gram entries with the kernels on
    # frames of n samples, for a target at ``delay`` samples whose Doppler
    # is ``doppler`` cycles per sample, so delta = -2 pi doppler is a
    # kernel's Doppler above it: with alpha[q] = e^{i delta q} conj(h[q]),
    # the spectrum conj(fft(conj(alpha))), the M-point spectrum
    # conj(fft_M(conj(beta))) of its wrap tail beta[s] = alpha[n - s]
    # (1 <= s < length), the ramp e^{i delta m} on m < length, zero on the
    # rest of the M points, and the wrap jump e^{-i delta n} - 1.
    delta = -2.0 * np.pi * doppler
    ramp = np.exp(1j * delta * np.arange(n))
    alpha = ramp * np.conj(np.fft.ifft(_delay_ramp(n, delay)))
    spectrum = np.conj(np.fft.fft(np.conj(alpha)))
    tail = np.zeros(_lag_size(length), dtype=complex)
    tail[1:length] = np.conj(alpha[n - 1 : n - length : -1])
    head = np.zeros_like(tail)
    head[:length] = ramp[:length]
    jump = complex(np.exp(-1j * delta * n) - 1.0)
    return (*_read_only(spectrum, np.conj(np.fft.fft(tail)), head), jump)


# Trials per pass of ``_codeword_gram`` and the kernels' Gram in the gated
# draw.  16 one-detection scene.json trials (2-core Xeon, 1 thread, best of
# 15) took 7.3 ms one trial a pass, 5.9 ms two, 5.0 ms four, 5.8 ms eight
# and 6.2 ms all 16, whose (16, 16, 256) spectra spill L2; a 16-trial block
# at 30 m peaks at 1.07, 1.67 and 4.21 MB traced at one, four and 16.
_GRAM_CHUNK = 4


def _codeword_gram(x, n: int, targets, kernels) -> np.ndarray:
    """The (B, F, D, T) cross-Grams k_d^H u_q of every frame of B trials,
    computed from their (B, F, L) codewords ``x`` alone.

    u_q[k] = e^{2i pi nu_q k} (h_q * x_f)[k] is target q's delayed,
    Doppler-ramped waveform on frames of n samples, h_q the circular
    band-limited delay by its delay and nu_q its Doppler in cycles per
    sample, and k_d = h_d * x_f a trial's kernel d, its codeword delayed by
    a lag, whose delay spectrum H_d is ``kernels`` (B, D, n).  An entry is
    the codeword's aperiodic autocorrelation, Doppler-shifted and read
    through a band-limited kernel, so it is formed in the lag domain.  With
    Delta = -2 pi nu_q, u[m] = conj(x_f[m]) e^{i Delta m}, M =
    ``_lag_size(L)`` and alpha as in ``_gram_side``,
    conj(k_d^H u_q) = sum_k U X~ g_qd + (e^{-i Delta n} - 1) sum_k W X~ k_d,
    where U = fft_M(u), X~ = conj(fft_M(conj x_f)), W = fft_M(w) with
    w[j] = sum_{s>=1} u[j + s] alpha[n - s] (j < L), and g_qd and k_d are
    the ``_lag_spectrum`` of ifft(H_d conj(fft(conj alpha))) and of h_d.
    The second term is the Doppler ramp's jump where the circular delay
    wraps past sample n - 1; it vanishes at zero Doppler.  What depends
    only on the targets is cached; the kernels are not.
    """
    length = x.shape[-1]
    m = _lag_size(length)
    cross = np.empty(x.shape[:-1] + (kernels.shape[1], len(targets)), dtype=complex)
    # X~ and U in two M-point buffers, each transformed in place.
    xt = np.zeros(x.shape[:-1] + (m,), dtype=complex)
    xt[..., :length] = x
    np.fft.fft(np.conj(xt, out=xt), out=xt)
    np.conj(xt, out=xt)
    u = np.empty_like(xt)
    for q, tg in enumerate(targets):
        side, tail, ramp, jump = _gram_side(n, length, tg.delay, tg.doppler)
        u[..., :length] = x
        u[..., length:] = 0.0
        np.conj(u, out=u)
        u *= ramp
        np.fft.fft(u, out=u)
        lagged = _lag_spectrum(np.fft.ifft(kernels * side), length)
        block = np.einsum("...fk,...fk,...ck->...fc", xt, u, lagged)
        if jump != 0:
            # W X~ in U's buffer: w is the head of ifft_M(U tail).
            u *= tail
            np.fft.ifft(u, out=u)[..., length:] = 0.0
            np.fft.fft(u, out=u)
            u *= xt
            heads = _lag_spectrum(np.fft.ifft(kernels), length)
            block += jump * (u @ heads.swapaxes(-1, -2))
        np.conj(block, out=cross[..., q])
    return cross


def receive_radar(first, later, targets, bf: Beamformer, frame_len, start, noise_variance, rngs):
    """What the receiver reads of the RF-chain blocks y = S + W of B trials' CPIs of F frames.

    ``first`` is the (B, L) transmitted frame 0 of each trial and
    ``later(trials)`` the (R, F - 1, L) frames 1..F-1 of the R block rows
    ``trials``; ``targets`` is B sequences of the trials' targets, which
    differ only in their gains; ``bf``, ``frame_len`` and the (F,) frame
    ``start`` are those of ``apply_radar_channel``, then s2 =
    ``noise_variance`` of W and ``rngs``, one generator per trial, from
    which that trial's W is drawn.  Every frame of a trial must have frame
    0's power spectrum |X_0|^2, as BMOCZ codewords of one amplitude do.
    Returns the trials' frame-0 combined rows c^H y_0 (B, N) and
    ``draw(rows, lags, values)``, to call once after detection on all of
    them.  ``draw`` returns the gated beam outputs (P, F, N_rf) of P
    detections, each the block row ``rows[p]`` and refined lag ``lags[p]``:
    the values z = <(Q^H y_f)_i, k_f> of every row i of every frame f in
    the basis Q = [c, B] (k_f: frame f of the trial's transmitted frames
    delayed by the lag, as ``correlation_value_at`` reads it off the
    cross-spectrum), exactly in distribution; frame 0's row 0 is
    ``values[p]``, the value that the receiver read off the combined row.

    The combined rows are formed for the whole block at once, and each
    trial's noise is drawn from its own generator, as for a block of one.
    The gated outputs of a trial's D detections are linear in y_f: each
    target's signal is rank one per frame, so z is the cross-Gram k_d^H u_q
    times the target's coordinates, plus CN(0, s2 G) noise on every row of
    every frame, G[d, e] = k_d^H k_e = (1/N) sum_f |X_0(f)|^2 conj(H_d(f))
    H_e(f) the kernels' Gram, one per trial.  The lags depend only on frame
    0's row 0, whose noise is independent of every other row's, so the draw
    stays exact.  ``draw`` reads ``later`` once, for the trials in ``rows``
    alone, and forms no waveform or spectrum of a later frame:
    ``_codeword_gram`` gives the cross-Grams from the codewords,
    ``_GRAM_CHUNK`` trials of one detection count at a time, and G = C C^H
    with C = V diag(sqrt(lambda)) from one stacked eigendecomposition.
    Eigenvalues within rounding of zero (at most D eps lambda_max) are
    zero, so the draw stays exact also when two detections share a lag.
    """
    first = np.asarray(first, dtype=complex)
    n = int(frame_len)
    geometry = [(tg.angle_rad, tg.delay, tg.doppler) for tg in targets[0]]
    if any([(tg.angle_rad, tg.delay, tg.doppler) for tg in trial] != geometry for trial in targets):
        raise ValueError("the trials of a block must share each target's angle, delay and Doppler")
    start = np.asarray(start, dtype=float)
    coords = _target_gains(targets, bf, start) @ bf.basis.conj()  # (B, F, T, N_rf): Q^H of gains
    spectrum = _padded_spectrum(first, n)
    # Frame 0's (B, T, N) waveforms, released once their combination is formed.
    signal = coords[:, :1, :, 0] @ _delayed_waveforms(spectrum, targets[0])
    power = np.abs(spectrum)  # frame 0's power spectrum, every frame's
    power **= 2
    del spectrum
    combined = awgn(signal[:, 0], noise_variance, rngs)
    n_rf = bf.basis.shape[0]

    def draw(rows, lags, values):
        rows = np.asarray(rows, dtype=int)
        lags = np.asarray(lags, dtype=float)
        values = np.asarray(values, dtype=complex)
        counts = np.bincount(rows)
        trials = np.flatnonzero(counts)  # the block rows that reach the draw
        counts = counts[trials]
        frames = later(trials)
        gated = np.empty((len(rows), len(start), n_rf), dtype=complex)
        for d in sorted(set(counts.tolist())):  # the trials with d detections
            group = np.flatnonzero(counts == d)
            members = trials[group]
            dets = np.array([np.flatnonzero(rows == b) for b in members])  # (G, d)
            cross = np.empty((len(group), len(start), d, len(targets[0])), dtype=complex)
            gram = np.empty((len(group), d, d), dtype=complex)
            for i in range(0, len(group), _GRAM_CHUNK):
                part = slice(i, i + _GRAM_CHUNK)
                x = np.concatenate([first[members[part], None], frames[group[part]]], axis=1)
                # Each H_d in C order, so that no product's rounding depends on the chunk.
                kernels = np.moveaxis(_delay_ramp(n, lags[dets[part]]), 0, -1).copy()
                cross[part] = _codeword_gram(x, n, targets[0], kernels)
                gram[part] = (kernels.conj() * power[members[part], None]) @ kernels.swapaxes(-1, -2)
            gram /= n  # sum_f P conj(H_d) H_e / N
            lam, vecs = np.linalg.eigh(gram)
            lam[lam <= d * np.finfo(float).eps * lam[..., -1:]] = 0.0
            factor = vecs * np.sqrt(lam)[..., None, :]  # C (G, d, d), C C^H = G
            noise = np.zeros((len(group), len(start), d, n_rf), dtype=complex)
            noise = awgn(noise, noise_variance, [rngs[b] for b in members])
            out = cross @ coords[members] + factor[:, None] @ noise  # (G, F, d, N_rf)
            out[:, 0, :, 0] = values[dets]
            gated[dets] = out.swapaxes(1, 2)
        return gated

    return combined, draw


def awgn(samples, noise_variance: float, rng) -> np.ndarray:
    """Add circular complex Gaussian noise of the given per-sample variance, drawn from ``rng``.

    The noise of the whole array is one draw of its real parts, then its
    imaginary parts; at variance 0 nothing is drawn and a copy is returned.
    ``rng`` is one generator, or a sequence of them, one per row of the
    first axis, each drawing its row's noise as a call on that row would.
    """
    if noise_variance < 0:
        raise ValueError("noise variance must be non-negative")
    out = np.array(samples, dtype=complex)
    if noise_variance == 0:
        return out
    one = isinstance(rng, np.random.Generator)
    for row, row_rng in zip([out] if one else out, [rng] if one else rng, strict=True):
        noise = row_rng.standard_normal((2,) + row.shape)
        noise *= math.sqrt(noise_variance / 2.0)
        row.real += noise[0]
        row.imag += noise[1]
    return out
