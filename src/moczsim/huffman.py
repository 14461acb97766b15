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


def broadcast_into(ufunc, a, b, out):
    """``ufunc(a, b, out=out)`` where one operand is broadcast over ``out``'s rows.

    When the rows are shorter than numpy's ufunc buffer (8192 values), numpy
    copies the broadcast operand into a buffer of up to that many values:
    ~130 KB of complex values, whatever the row count.  With the buffer size
    set to the row length for this call, rounded down to numpy's multiple of
    16 (``np.errstate`` restores it), the operands are read in place, and a
    cast needs at most one row of buffer.
    """
    with np.errstate():
        np.setbufsize(min(16 * max(1, out.shape[-1] // 16), np.getbufsize()))
        return ufunc(a, b, out=out)


@lru_cache(maxsize=4)
def _log_basis(params: ModulationParams) -> tuple[np.ndarray, np.ndarray]:
    # Logs of the codeword's values on the K+1 roots of unity w, split into
    # what no message changes and the phase each set bit adds.  For |w| = 1,
    # |w - R a| = R |w - a/R|, so a set bit scales every value by R: the
    # log-magnitudes are the all-zero message's plus |m| log R, and the
    # unit-energy scaling removes that term.  The constant row holds the
    # all-zero message's log-values, less the log of sqrt((K+1) S0) (S0 the
    # sum of their squared magnitudes: Parseval and the unscaled FFT), plus
    # i pi, since the constant coefficient -prod(r_k) is negative.  The
    # (K, K+1) real basis holds arg((w - R a) / (w - a/R)) per zero pair, so
    # a real message matrix times it is one real GEMM of the phases.
    # Read-only, since every caller shares them.
    K = params.num_bits
    R = params.outer_radius
    grid = np.exp(2j * np.pi * np.arange(K + 1) / (K + 1))[:, None]
    pair_angles = np.exp(2j * np.pi * np.arange(K) / K)[None, :]
    inner = grid - pair_angles / R
    row = np.log(inner).sum(axis=1)
    row.real -= 0.5 * np.log((K + 1) * np.sum(np.exp(2.0 * row.real)))
    row.imag += np.pi
    basis = np.ascontiguousarray(np.angle((grid - R * pair_angles) / inner).T)
    row.flags.writeable = False
    basis.flags.writeable = False
    return row, basis


def encode_batch(messages, params: ModulationParams) -> np.ndarray:
    """Encode a batch of bit messages into transmit sequences.

    Parameters
    ----------
    messages : array_like, shape (B, K) or (K,)
        Rows of 0/1 payload bits; float64 rows are read without a copy.
    params : ModulationParams

    Returns
    -------
    ndarray, shape (B, K+1)
        Unit-energy sample sequences, first sample real and positive (its
        imaginary part is rounding, below 1e-12).

    Notes
    -----
    The polynomial is recovered from its values on the K+1 roots of unity
    rather than by expanding the zero product term by term.  Partial products
    of zeros clustered on an arc grow combinatorially large before cancelling,
    which destroys double precision for K beyond roughly 100; the evaluation
    route is exact up to rounding because the sequence spectrum is within
    [1 - 2*eta, 1 + 2*eta] of flat on the unit circle.  That spectrum is the
    all-zero message's times R^|m|, so only the phases of the values depend
    on the message: one real GEMM of the messages with the cached (K, K+1)
    phase basis, written straight into the imaginary parts of the result, plus
    the cached constant row of log-values, whose real parts are copied in
    unchanged.  The constant row carries the unit energy and the sign of the
    first sample, so ``exp`` and the FFT along the rows in place finish the
    sequences, with no per-row factor.  The row and the basis depend only on
    ``params`` and are cached for the four most recent parameter sets.
    """
    m = np.atleast_2d(np.asarray(messages))
    if m.ndim != 2 or m.shape[1] != params.num_bits:
        raise ValueError(f"messages must have {params.num_bits} columns")
    if np.count_nonzero(m) != np.count_nonzero(m == 1):  # a nonzero entry other than 1
        raise ValueError("bit message entries must be 0 or 1")

    row, basis = _log_basis(params)
    out = np.empty((m.shape[0], params.seq_len), dtype=complex)
    np.matmul(np.asarray(m, dtype=np.float64), basis, out=out.imag)
    broadcast_into(np.add, out.imag, row.imag, out.imag)
    np.copyto(out.real, row.real)
    # exp of summed logs equals the zero product; branch offsets cancel in exp.
    np.exp(out, out=out)
    return np.fft.fft(out, axis=1, out=out)


def encode(bits, params: ModulationParams) -> np.ndarray:
    """Encode one bit message; returns the K+1 complex transmit samples."""
    m = np.asarray(bits)
    if m.ndim != 1:
        raise ValueError("bit message must be one-dimensional")
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
