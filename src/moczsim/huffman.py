"""Huffman-sequence construction for binary modulation on conjugate-reciprocal zeros.

Each payload bit selects one zero from a conjugate-reciprocal pair sitting at
radius R (bit 1) or 1/R (bit 0) and angle 2*pi*(k-1)/K.  The transmit sequence
is the unit-energy coefficient vector of the polynomial with those zeros.  All
2^K such sequences share a single aperiodic autocorrelation: a central peak of
1 and two end side-peaks of magnitude eta = 1/(R^K + R^-K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ModulationParams",
    "derive_radius",
    "derive_side_peak",
    "encode",
    "encode_batch",
    "autocorrelation",
    "sequence_to_csv",
    "sequence_from_csv",
]


def derive_radius(num_bits: int, radius_tuning: float) -> float:
    """Outer zero-circle radius sqrt(1 + 2*lam*sin(pi/K)) for K zero pairs."""
    if num_bits < 1:
        raise ValueError(f"num_bits must be a positive integer, got {num_bits}")
    if radius_tuning <= 0.0:
        raise ValueError(f"radius_tuning must be positive, got {radius_tuning}")
    return float(np.sqrt(1.0 + 2.0 * radius_tuning * np.sin(np.pi / num_bits)))


def derive_side_peak(radius: float, num_bits: int) -> float:
    """Autocorrelation side-peak magnitude 1/(R^K + R^-K), in (0, 1/2)."""
    if radius <= 1.0:
        raise ValueError(
            f"radius must exceed 1 so zeros stay off the unit circle, got {radius}"
        )
    rk = radius**num_bits
    return float(1.0 / (rk + 1.0 / rk))


@dataclass(frozen=True)
class ModulationParams:
    """Codebook geometry for a K-bit packet.

    ``num_bits`` is the number of zero pairs (one payload bit each), so the
    transmit sequence has ``num_bits + 1`` samples.  ``outer_radius`` and
    ``side_peak`` are derived from the tuning constant and cached.
    """

    num_bits: int = 127
    radius_tuning: float = 0.5
    outer_radius: float = field(init=False)
    side_peak: float = field(init=False)

    def __post_init__(self):
        if self.num_bits < 1:
            raise ValueError(f"num_bits must be >= 1, got {self.num_bits}")
        if not 0.0 < self.radius_tuning < 1.0:
            raise ValueError(
                f"radius_tuning must lie in (0, 1), got {self.radius_tuning}"
            )
        r = derive_radius(self.num_bits, self.radius_tuning)
        if r <= 1.0:
            # K = 1 collapses the radius rule to R = 1 and has no valid geometry.
            raise ValueError(f"degenerate geometry for num_bits={self.num_bits}")
        object.__setattr__(self, "outer_radius", r)
        object.__setattr__(self, "side_peak", derive_side_peak(r, self.num_bits))

    @property
    def seq_len(self) -> int:
        return self.num_bits + 1


def _as_bits(bits, num_bits: int | None = None) -> np.ndarray:
    m = np.atleast_1d(np.asarray(bits))
    if m.ndim != 1:
        raise ValueError("bit message must be one-dimensional")
    if num_bits is not None and m.size != num_bits:
        raise ValueError(f"expected {num_bits} bits, got {m.size}")
    mi = m.astype(np.int64)
    if np.any((mi != 0) & (mi != 1)) or not np.all(mi == m):
        raise ValueError("bit message entries must be 0 or 1")
    return mi


@lru_cache(maxsize=4)
def _log_basis(params: ModulationParams) -> tuple[np.ndarray, np.ndarray]:
    # Logs of the zero factors on the K+1 roots of unity: the per-point sum
    # of the inner (bit 0) factors, and the outer-minus-inner difference that
    # each set bit adds, stored as the real view of its (K, K+1) transpose so
    # a real message matrix times it is one real GEMM.  Read-only, since
    # every caller shares them.
    K = params.num_bits
    R = params.outer_radius
    grid = np.exp(2j * np.pi * np.arange(K + 1) / (K + 1))
    pair_angles = np.exp(2j * np.pi * np.arange(K) / K)
    log_outer = np.log(grid[:, None] - R * pair_angles[None, :])
    log_inner = np.log(grid[:, None] - pair_angles[None, :] / R)
    inner_sum = log_inner.sum(axis=1)
    log_outer -= log_inner
    basis = np.ascontiguousarray(log_outer.T).view(np.float64)
    inner_sum.flags.writeable = False
    basis.flags.writeable = False
    return inner_sum, basis


def encode_batch(messages, params: ModulationParams, out=None) -> np.ndarray:
    """Encode a batch of bit messages into transmit sequences.

    Parameters
    ----------
    messages : array_like, shape (B, K) or (K,)
        Rows of 0/1 payload bits; float64 rows are read without a copy.
    params : ModulationParams
    out : ndarray, shape (B, K+1), complex, optional
        Where the sequences are built; allocated when omitted.

    Returns
    -------
    ndarray, shape (B, K+1)
        Unit-energy sample sequences, first sample real and positive.

    Notes
    -----
    The polynomial is recovered from its values on the K+1 roots of unity
    rather than by expanding the zero product term by term.  Partial products
    of zeros clustered on an arc grow combinatorially large before cancelling,
    which destroys double precision for K beyond roughly 100; the evaluation
    route is exact up to rounding because the sequence spectrum is within
    [1 - 2*eta, 1 + 2*eta] of flat on the unit circle.  The (K, 2(K+1)) real
    log basis depends only on ``params`` and is cached for the four most
    recent parameter sets.  The leading coefficient -sqrt(eta R^(K-2|m|))
    and the 1/(K+1) that turns the FFT of the values into coefficients are
    real factors per row; the closing per-row phase and energy
    normalisation removes any such factor, so neither is applied.
    """
    m = np.atleast_2d(np.asarray(messages))
    if m.ndim != 2 or m.shape[1] != params.num_bits:
        raise ValueError(f"messages must have {params.num_bits} columns")
    if np.count_nonzero(m) != np.count_nonzero(m == 1):  # a nonzero entry other than 1
        raise ValueError("bit message entries must be 0 or 1")

    inner_sum, basis = _log_basis(params)
    if out is None:
        out = np.empty((m.shape[0], params.seq_len), dtype=complex)
    # exp of summed logs equals the zero product; branch offsets cancel in exp.
    xr = out.view(np.float64)
    np.matmul(np.asarray(m, dtype=np.float64), basis, out=xr)
    out += inner_sum
    np.exp(out, out=out)
    np.fft.fft(out, axis=1, out=out)
    energy = np.einsum("ij,ij->i", xr, xr)
    out *= (np.exp(-1j * np.angle(out[:, 0])) / np.sqrt(energy))[:, None]
    return out


def encode(bits, params: ModulationParams) -> np.ndarray:
    """Encode one bit message; returns the K+1 complex transmit samples."""
    m = _as_bits(bits, params.num_bits)
    return encode_batch(m[None, :], params)[0]


def autocorrelation(x) -> np.ndarray:
    """Aperiodic autocorrelation with index n holding lag n - K.

    For any Huffman sequence the result is (-eta, 0, ..., 1, ..., 0, -eta).
    """
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        raise ValueError("cannot correlate an empty sequence")
    return np.correlate(x, x, mode="full")


def sequence_to_csv(x) -> str:
    """Serialize complex samples as one "re,im" pair per line."""
    x = np.asarray(x, dtype=complex)
    return "\n".join(f"{v.real:.12g},{v.imag:.12g}" for v in x) + "\n"


def sequence_from_csv(text: str) -> np.ndarray:
    """Parse the "re,im" per-line format produced by :func:`sequence_to_csv`."""
    samples = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 're,im', got {line!r}")
        try:
            re_part, im_part = float(parts[0]), float(parts[1])
        except ValueError:
            re_part = im_part = math.nan
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise ValueError(f"line {ln}: samples must be finite numbers, got {line!r}")
        samples.append(complex(re_part, im_part))
    if not samples:
        raise ValueError("no samples found in CSV input")
    return np.asarray(samples, dtype=complex)
