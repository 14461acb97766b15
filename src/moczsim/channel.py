"""Uniform-linear-array steering, hybrid beamforming, and discrete-time channels.

The array is a half-wavelength ULA.  Transmit beamforming is a single matched
beam per angular segment; receive reduction selects a few orthonormal DFT
codebook beams around the segment.  Channel application realizes fractional
delays by a spectral phase ramp on the zero-padded frame (band-limited
interpolation under ideal Nyquist pulse shaping) and Doppler as a per-sample
phase ramp on the output grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "radar_channel_factors",
    "apply_radar_channel",
    "receive_radar",
    "awgn",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre
_ANGLE_TOL = 1e-12
DB_LIMIT = 3082  # largest |x| dB whose ratio 10 ** (x / 10) is a finite float


def steering(angle_rad: float, num_antennas: int) -> np.ndarray:
    """ULA response a_n = exp(i*(n-1)*pi*sin(angle)), n = 1..N_a."""
    if abs(angle_rad) > np.pi / 2 + _ANGLE_TOL:
        raise ValueError(f"steering angle must lie in [-pi/2, pi/2], got {angle_rad}")
    if num_antennas < 1:
        raise ValueError("array needs at least one antenna")
    return np.exp(1j * np.pi * np.sin(angle_rad) * np.arange(num_antennas))


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
    """Unit-norm Tx beam, orthonormal Rx reduction U, unit-norm combiner c, unitary Q = [c, B]."""

    tx_beam: np.ndarray
    rx_matrix: np.ndarray
    combiner: np.ndarray
    basis: np.ndarray


def dft_codebook(num_antennas: int):
    """Orthonormal DFT beam codebook of size D = N_a.

    Returns (broadside angles ascending, matrix of unit-norm columns).  Beam d
    points at sin(angle) = 2*d/D for d in [-D/2, D/2).
    """
    d = np.arange(num_antennas) - num_antennas // 2
    sin_dirs = 2.0 * d / num_antennas
    angles = np.arcsin(sin_dirs)
    n = np.arange(num_antennas)
    book = np.exp(1j * np.pi * np.outer(n, sin_dirs)) / math.sqrt(num_antennas)
    return angles, book


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
    return Beamformer(a / math.sqrt(cfg.num_antennas), rx_matrix, combiner, basis)


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


def fractional_delay(samples, shift_samples: float, out_len: int) -> np.ndarray:
    """Band-limited delay by ``shift_samples`` on a frame of ``out_len`` samples.

    Implemented as a phase ramp on the spectrum of the zero-padded frame; the
    shift is circular on that frame, so energy is conserved exactly for any
    fractional shift.  Leading axes of ``samples`` are independent frames.
    """
    x = np.asarray(samples, dtype=complex)
    n = int(out_len)
    if n < x.shape[-1]:
        raise ValueError("out_len must not truncate the input")
    spec = np.fft.fft(x, n, axis=-1)  # zero-pads to n
    spec *= np.exp(-2j * np.pi * np.fft.fftfreq(n) * shift_samples)
    return np.fft.ifft(spec, axis=-1)


def radar_channel_factors(
    samples, targets, bf: Beamformer, sample_period: float, frame_len: int, start_time=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Backscatter response at the RF chains as rank-one factors per frame and target.

    ``samples`` (..., L) are transmit samples, already amplitude-scaled, whose
    leading axes index frames; ``start_time`` (...) is the absolute time of
    each frame's sample 0, so Doppler stays coherent across frames; delays
    wrap circularly on frames of ``frame_len`` = N >= L samples of
    ``sample_period`` T.  Returns the gains (..., T, N_rf),
    rho_q U^H a(phi_q) a^H(phi_q) f e^{2i pi nu_q start}, and the delayed,
    Doppler-ramped waveforms (..., T, N), s(nT - tau_q) e^{2i pi nu_q nT}: the
    Doppler factor splits into a per-frame phase and one per-sample ramp, so
    a target costs F + N complex exponentials, not F*N.
    """
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    x = np.asarray(samples, dtype=complex)
    n = int(frame_len)
    num_antennas, n_rf = bf.rx_matrix.shape
    start = np.broadcast_to(np.asarray(start_time, dtype=float), x.shape[:-1])
    sample_times = np.arange(n) * sample_period
    gains = np.empty(x.shape[:-1] + (len(targets), n_rf), dtype=complex)
    delayed = np.empty(x.shape[:-1] + (len(targets), n), dtype=complex)
    for q, tg in enumerate(targets):
        a = steering(tg.angle_rad, num_antennas)
        spatial = tg.gain * (bf.rx_matrix.conj().T @ a) * (a.conj() @ bf.tx_beam)
        gains[..., q, :] = np.exp(2j * np.pi * tg.doppler_hz * start)[..., None] * spatial
        delayed[..., q, :] = fractional_delay(x, tg.delay_s / sample_period, n)
        delayed[..., q, :] *= np.exp(2j * np.pi * tg.doppler_hz * sample_times)
    return gains, delayed


def apply_radar_channel(*args, **kwargs) -> np.ndarray:
    """The (..., N_rf, N) response: ``radar_channel_factors(*args, **kwargs)`` over targets.

    y[n] = sum_q rho_q U^H a(phi_q) a^H(phi_q) f s(nT - tau_q) e^{2i pi nu_q t_n}.
    """
    gains, delayed = radar_channel_factors(*args, **kwargs)
    return np.swapaxes(gains, -1, -2) @ delayed


def receive_radar(
    samples, targets, bf: Beamformer, sample_period, frame_len, start_time, noise_variance, rng
) -> tuple[np.ndarray, np.ndarray]:
    """What the receiver reads of the RF-chain block y = S + W of (F, L) frames.

    The first arguments are those of ``radar_channel_factors``; W is
    CN(0, s2), s2 = ``noise_variance``, drawn from ``rng``.  Returns the
    combined rows c^H y (F, N) and the covariance sum_f y_f y_f^H / (FN),
    drawn exactly in distribution without forming y.  In the basis
    Q = [c, B], row 0 of Q^H y is the combined row, signal plus fresh noise.
    Each target's signal is rank one per frame, so rows 1..N_rf-1 reach the
    covariance only through their coordinates on an orthonormal basis E_f of
    span{delayed waveforms, combined row}, the projected signal plus
    F(T+1)(N_rf-1) CN(0, s2) draws, and the Gram of the rest of their noise,
    a complex Wishart W_{N_rf-1}(F(N-T-1), s2 I) (Goodman, Ann. Math.
    Statist. 1963) drawn by Bartlett's decomposition (Proc. R. Soc. Edinb.
    1933).  Householder QR gives R_f = E_f^H [delayed, combined], and stays
    exact when the span has lower rank.  Needs F(N-T-1) >= N_rf - 1.
    """
    gains, delayed = radar_channel_factors(
        samples, targets, bf, sample_period, frame_len, start_time
    )
    coords = gains @ bf.basis.conj()  # (F, T, N_rf): Q^H of each target's gains
    signal = np.einsum("ft,ftn->fn", coords[..., 0], delayed)
    combined = awgn(signal, noise_variance, rng, frame_axes=1)
    spanning = np.concatenate((delayed, combined[:, None, :]), axis=1)
    r = np.linalg.qr(spanning.swapaxes(1, 2), mode="r")  # (F, T+1, T+1)
    rest = awgn(r[..., :-1] @ coords[..., 1:], noise_variance, rng)  # rows 1.. on E_f
    rows = np.concatenate((r[..., -1:], rest), axis=-1)  # (F, T+1, N_rf)
    gram = np.einsum("fdi,fdj->ij", rows, rows.conj())
    m, dof = gram.shape[0] - 1, combined.size - rows[..., 0].size  # dof = F(N - T - 1)
    lower = np.tril(awgn(np.zeros((m, m)), 1.0, rng), -1)
    lower[np.diag_indices(m)] = np.sqrt(rng.standard_gamma(dof - np.arange(m)))
    gram[1:, 1:] += noise_variance * (lower @ lower.conj().T)
    cov = bf.basis @ gram @ bf.basis.conj().T / combined.size
    return combined, 0.5 * (cov + cov.conj().T)


def awgn(
    samples, noise_variance: float, rng: np.random.Generator, frame_axes: int = 0
) -> np.ndarray:
    """Add circular complex Gaussian noise of the given per-sample variance, drawn from ``rng``.

    The noise of each block over the trailing axes is drawn as its real part,
    then its imaginary part.  ``frame_axes`` leading axes index such blocks,
    so a stack of frames draws the same stream as one call per frame in
    order; with the default 0 the whole array is one block.
    """
    if noise_variance < 0:
        raise ValueError("noise variance must be non-negative")
    x = np.asarray(samples, dtype=complex)
    if noise_variance == 0:
        return x.copy()
    shape = x.shape[:frame_axes] + (2,) + x.shape[frame_axes:]
    # The output is allocated before the draw, which is freed on return: the
    # other order measured ~1 MB more peak RSS on a radar run, from where the
    # allocator placed the result.
    out = np.empty_like(x)
    draw = rng.standard_normal(shape)
    draw *= math.sqrt(noise_variance / 2.0)
    re, im = np.moveaxis(draw, frame_axes, 0)
    np.add(x.real, re, out=out.real)
    np.add(x.imag, im, out=out.imag)
    return out
