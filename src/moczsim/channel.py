"""Uniform-linear-array steering, hybrid beamforming, and discrete-time channels.

The array is a half-wavelength ULA.  Transmit beamforming is a single matched
beam per angular segment; receive reduction selects a few orthonormal DFT
codebook beams around the segment.  Channel application realizes fractional
delays by a spectral phase ramp on the zero-padded frame (band-limited
interpolation under ideal Nyquist pulse shaping) and Doppler as a per-sample
phase ramp on the output grid.  The zero-padded spectrum and that ramp,
exp(-2i pi f s) for a shift by s, are defined here once and ``radar`` reads
both: its interpolation at a lag l is the ramp at s = -l.  ``steering`` is
the one form of the array manifold, for one angle or many.
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
    """Backscatter path: complex gain, angle, round-trip delay, Doppler shift."""

    gain: complex
    angle_rad: float
    delay_s: float
    doppler_hz: float

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("delay must be non-negative")
        if abs(self.angle_rad) > np.pi / 2 + _ANGLE_TOL:
            raise ValueError("target angle must lie in [-pi/2, pi/2]")

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
        """Physical path from range/velocity/angle; Doppler is two-way 2 v f_c / c."""
        amp = math.sqrt(radar_gain(link, rcs_dbsm, range_m))
        return cls(
            gain=amp * np.exp(1j * phase_rad),
            angle_rad=math.radians(angle_deg),
            delay_s=2.0 * range_m / SPEED_OF_LIGHT,
            doppler_hz=2.0 * velocity_mps * link.carrier_hz / SPEED_OF_LIGHT,
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
    return np.exp(-2j * np.pi * np.multiply.outer(np.fft.fftfreq(n), shift_samples))


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
def _target_ramps(n: int, shift_samples: float, doppler_hz: float, sample_period: float):
    # A target's delay ramp on the spectrum and its per-sample Doppler ramp
    # on frames of n samples.  Read-only, since every trial shares them.
    doppler = np.exp(2j * np.pi * doppler_hz * (np.arange(n) * sample_period))
    return _read_only(_delay_ramp(n, shift_samples), doppler)


def _target_gains(targets, bf: Beamformer, start) -> np.ndarray:
    """The (..., T, N_rf) gains rho_q U^H a(phi_q) a^H(phi_q) f e^{2i pi nu_q start}
    of frames that start at the times ``start`` (...)."""
    num_antennas, n_rf = bf.rx_matrix.shape
    gains = np.empty(np.shape(start) + (len(targets), n_rf), dtype=complex)
    for q, tg in enumerate(targets):
        a = steering(tg.angle_rad, num_antennas)
        spatial = tg.gain * (bf.rx_matrix.conj().T @ a) * (a.conj() @ bf.tx_beam)
        gains[..., q, :] = np.exp(2j * np.pi * tg.doppler_hz * start)[..., None] * spatial
    return gains


def _delayed_waveforms(spectrum, targets, sample_period: float) -> np.ndarray:
    """The (..., T, N) waveforms s(nT - tau_q) e^{2i pi nu_q nT} of the frames
    whose N-point spectrum is ``spectrum`` (..., N)."""
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    n = spectrum.shape[-1]
    delayed = np.empty(spectrum.shape[:-1] + (len(targets), n), dtype=complex)
    for q, tg in enumerate(targets):
        delay_ramp, doppler_ramp = _target_ramps(
            n, tg.delay_s / sample_period, tg.doppler_hz, sample_period
        )
        delayed[..., q, :] = np.fft.ifft(spectrum * delay_ramp, axis=-1)
        delayed[..., q, :] *= doppler_ramp
    return delayed


def apply_radar_channel(
    samples, targets, bf: Beamformer, sample_period: float, frame_len: int, start_time=0.0
) -> np.ndarray:
    """The (..., N_rf, N) response to (..., L) transmit ``samples`` on frames of ``frame_len``.

    y[n] = sum_q rho_q U^H a(phi_q) a^H(phi_q) f s(nT - tau_q) e^{2i pi nu_q t_n}.
    The leading axes of ``samples`` index frames; ``start_time`` (...) is the
    absolute time of each frame's sample 0, so Doppler stays coherent across
    frames; delays wrap circularly on frames of N samples of ``sample_period``
    T.  Each target's response is rank one per frame: its gains (..., T,
    N_rf), rho_q U^H a(phi_q) a^H(phi_q) f e^{2i pi nu_q start}, times its
    delayed, Doppler-ramped waveform (..., T, N), s(nT - tau_q) e^{2i pi nu_q
    nT}.  The Doppler factor splits into a per-frame phase and one per-sample
    ramp, so a target costs F + N complex exponentials, not F*N, and its two
    ramps are computed once per (N, delay, Doppler, T).
    """
    spectrum = _padded_spectrum(samples, frame_len)
    delayed = _delayed_waveforms(spectrum, targets, sample_period)
    start = np.broadcast_to(np.asarray(start_time, dtype=float), spectrum.shape[:-1])
    return np.swapaxes(_target_gains(targets, bf, start), -1, -2) @ delayed


@lru_cache(maxsize=4)
def _circulant_index(n: int, length: int) -> np.ndarray:
    # (length, length) indices (j - i) mod n: g[index] is the transposed
    # top-left block of the n x n circulant of g, so x @ g[index] is the
    # circular convolution of g with x zero-padded to n, read at 0..length-1.
    i = np.arange(length)
    return _read_only((i[None, :] - i[:, None]) % n)[0]


@lru_cache(maxsize=8)
def _gram_side(n: int, length: int, shift_samples: float, delta: float):
    # Column a's factors of the Gram entries <u_a, u_b> on frames of n
    # samples, for a column a at shift_samples and a column b whose Doppler
    # is delta / (2 pi) cycles per sample above a's: with alpha[q] =
    # e^{i delta q} conj(h_a[q]), the spectrum conj(fft(conj(alpha))), the
    # transposed wrap matrix alpha[n - (m - j)] (1 <= m - j < length), the
    # ramp e^{i delta m} (m < length) and the wrap jump e^{-i delta n} - 1.
    ramp = np.exp(1j * delta * np.arange(n))
    alpha = ramp * np.conj(np.fft.ifft(_delay_ramp(n, shift_samples)))
    spectrum = np.conj(np.fft.fft(np.conj(alpha)))
    wrap = np.triu(alpha[_circulant_index(n, length).T], 1)
    jump = complex(np.exp(-1j * delta * n) - 1.0)
    return (*_read_only(spectrum, wrap, ramp[:length].copy()), jump)


def _codeword_gram(x, n: int, targets, sample_period: float, lags) -> np.ndarray:
    """The (F, C, C) Gram A_f^H A_f of the C = T + D columns u_c of each frame,
    computed from the (F, L) codewords ``x`` alone.

    The columns are the T targets' delayed, Doppler-ramped waveforms on
    frames of n samples, then the D kernels (the codeword delayed by each
    of ``lags``): u_c[k] = e^{2i pi nu_c k} (h_c * x_f)[k] with h_c the
    circular band-limited delay by s_c and nu_c = f_D T (0 for a kernel).
    For a < b, with Delta = 2 pi (nu_b - nu_a) and alpha as in
    ``_gram_side``, G[a, b] = sum_m conj(x[m]) e^{i Delta m} (sum_m'
    g[(m - m') mod n] x[m'] + (e^{-i Delta n} - 1) sum_{s=1}^m alpha[n - s]
    k[m - s]), where g = ifft(H_b conj(fft(conj alpha))) and k = h_b * x
    read at 0..L-1; the second term is the Doppler ramp's jump where the
    circular delay wraps past sample n - 1.  The diagonal is ||x_f||^2, as
    a band-limited circular delay is unitary.  What depends only on the
    targets is cached; the lags are not.
    """
    length = x.shape[-1]
    shifts = [tg.delay_s / sample_period for tg in targets] + list(lags)
    cycles = [tg.doppler_hz * sample_period for tg in targets] + [0.0] * len(lags)
    spectra = [
        _target_ramps(n, s, tg.doppler_hz, sample_period)[0] for s, tg in zip(shifts, targets)
    ] + [_delay_ramp(n, lag) for lag in lags]
    index = _circulant_index(n, length)
    size = len(shifts)
    gram = np.empty(x.shape[:-1] + (size, size), dtype=complex)
    gram[..., range(size), range(size)] = np.einsum("fm,fm->f", x.conj(), x).real[:, None]
    heads = {}  # column b: x delayed by s_b, read at 0..L-1, once a wrap term needs it
    for b in range(1, size):
        for a in range(b):
            if a < len(targets):
                side, wrap, ramp, jump = _gram_side(
                    n, length, shifts[a], 2.0 * np.pi * (cycles[b] - cycles[a])
                )
            else:  # two kernels: no Doppler between them
                side, wrap, ramp, jump = spectra[a].conj(), None, 1.0, 0.0
            inner = x @ np.fft.ifft(spectra[b] * side)[index]
            if jump != 0:
                if b not in heads:
                    heads[b] = x @ np.fft.ifft(spectra[b])[index]
                inner += jump * (heads[b] @ wrap)
            gram[..., a, b] = np.einsum("fm,fm->f", x.conj() * ramp, inner)
            gram[..., b, a] = gram[..., a, b].conj()
    return gram


def receive_radar(
    samples, targets, bf: Beamformer, sample_period, frame_len, start_time, noise_variance, rng
):
    """What the receiver reads of the RF-chain block y = S + W of (F, L) frames.

    The arguments are those of ``apply_radar_channel``, then s2 =
    ``noise_variance`` of W and the ``rng`` it is drawn from.  Returns frame
    0's combined row c^H y_0 (N,) and ``rest(lags, values)``, to call once
    after detection on it.  ``rest`` returns the gated beam outputs, the
    (F, D, N_rf) values <(Q^H y_f)_i, k_fj> of every row i of every frame f
    in the basis Q = [c, B] at D ``lags`` (k_fj: frame f of ``samples``
    delayed by lag j, as ``correlation_value_at`` reads it off the
    cross-spectrum), exactly in distribution; frame 0's row 0 is
    ``values``, the (D,) values that the receiver read off the combined row.
    Each target's signal is rank one per frame, so the rows of frame f are
    drawn as their coordinates on a basis of span{T waveforms, D kernels
    k_fj}: the projected signal plus CN(0, s2) noise.  The lags depend only
    on frame 0's row 0, whose noise is independent of every other row's,
    so the draw stays exact.  No frame forms its waveforms or spectra:
    ``_codeword_gram`` gives the Gram G_f of each span from the codeword,
    and R_f = diag(sqrt(max(lambda, 0))) V^H from its eigendecomposition,
    with R_f^H R_f = G_f, stands for the triangular factor, so the draw
    stays exact also when a span has lower rank.
    """
    x = np.asarray(samples, dtype=complex)
    n = int(frame_len)
    start = np.broadcast_to(np.asarray(start_time, dtype=float), x.shape[:-1])
    coords = _target_gains(targets, bf, start) @ bf.basis.conj()  # (F, T, N_rf): Q^H of gains
    delayed = _delayed_waveforms(_padded_spectrum(x[0], n), targets, sample_period)  # (T, N)
    combined = awgn(coords[0, :, 0] @ delayed, noise_variance, rng)

    def rest(lags, values):
        """The (F, D, N_rf) gated outputs, every frame drawn on R_f, an
        eigen-factor of its codeword-domain Gram, then frame 0's row 0 set
        to ``values``."""
        lags = np.asarray(lags, dtype=float)
        lam, vecs = np.linalg.eigh(_codeword_gram(x, n, targets, sample_period, lags))
        r = np.sqrt(np.maximum(lam, 0.0))[..., None] * vecs.conj().swapaxes(-1, -2)
        rows = awgn(r[..., : len(targets)] @ coords, noise_variance, rng)  # all rows on E_f
        gated = r[..., len(targets) :].conj().swapaxes(-1, -2) @ rows
        gated[0, :, 0] = values
        return gated

    return combined, rest


def awgn(samples, noise_variance: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise of the given per-sample variance, drawn from ``rng``.

    The noise of the whole array is one draw of its real parts, then its
    imaginary parts; at variance 0 nothing is drawn and a copy is returned.
    """
    if noise_variance < 0:
        raise ValueError("noise variance must be non-negative")
    out = np.array(samples, dtype=complex)
    if noise_variance == 0:
        return out
    noise = rng.standard_normal((2,) + out.shape)
    noise *= math.sqrt(noise_variance / 2.0)
    out.real += noise[0]
    out.imag += noise[1]
    return out
