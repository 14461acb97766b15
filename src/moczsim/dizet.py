"""Noncoherent bit recovery by magnitude tests on the conjugate-reciprocal zero grid.

A multipath channel multiplies the transmit polynomial by its own polynomial
and so never moves the designed zeros.  Each bit is therefore recovered by
evaluating the received polynomial at the two candidate zero positions and
picking the smaller normalized magnitude, with no channel estimate and no
carrier phase reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .huffman import ModulationParams, broadcast_into

__all__ = [
    "eval_on_zero_grid",
    "decide",
    "dizet_decode",
    "dizet_decode_batch",
]

# floor for log magnitudes; keeps margins finite when a test point is an exact zero
_MAG_FLOOR = 1e-300


def eval_on_zero_grid(samples, radius: float, num_bits: int, out=None) -> np.ndarray:
    """Polynomial values at the K grid points radius * exp(2i*pi*k/K).

    ``samples`` has shape (..., N); leading axes are independent sequences
    and the result has shape (..., K), written to ``out`` when given.  The
    samples are folded modulo K with their radius weights and a K-point
    inverse DFT is taken in place, which is algebraically identical to
    evaluating each point by Horner's rule.
    """
    y = np.asarray(samples, dtype=complex)
    n = y.shape[-1]
    weights = radius ** np.arange(max(n, num_bits))
    if out is None:
        out = np.empty(y.shape[:-1] + (num_bits,), dtype=complex)
    # Fold modulo K by slice adds onto the first block, each tail block
    # starting at s scaled by R^s; an input shorter than K is zero-extended
    # to the transform length.  Sample j + s then carries R^(j+s) once the
    # folded block is scaled by R^j, which is one in-place multiply on the
    # contiguous grid rather than a broadcast multiply of strided rows.
    head = min(n, num_bits)
    np.copyto(out[..., :head], y[..., :head])
    out[..., head:] = 0
    for start in range(num_bits, n, num_bits):
        block = y[..., start : start + num_bits]
        out[..., : block.shape[-1]] += weights[start] * block
    broadcast_into(np.multiply, out, weights[:num_bits], out)
    # sum_m g[m] exp(+2i pi m k / K) == K * ifft(g)
    np.fft.ifft(out, axis=-1, out=out)
    out *= num_bits
    return out


@lru_cache(maxsize=64)
def _normalizers(radius: float, n: int) -> tuple[float, float]:
    # Euclidean norms of the evaluation weight vectors (R^n) and (R^-n);
    # dividing by them equalizes the noise variance of the two test statistics.
    expo = np.arange(n)
    c_outer = float(np.sqrt(np.sum(radius ** (2.0 * expo))))
    c_inner = float(np.sqrt(np.sum(radius ** (-2.0 * expo))))
    return c_outer, c_inner


def decide(outer, inner, radius: float, n: int):
    """The DiZeT decision from the grid magnitudes of packets of n samples.

    ``outer`` and ``inner`` are float arrays of |Y| on the grids of radius
    ``radius`` and 1/``radius``.  Each is divided by the norm of its weight
    vector, floored and logged in place; the margins log(inner) - log(outer)
    are written to ``outer``.  Returns (bits, margins), bit 1 where the
    margin is positive.
    """
    for mags, norm in zip((outer, inner), _normalizers(radius, n)):
        mags /= norm
        np.maximum(mags, _MAG_FLOOR, out=mags)
        np.log(mags, out=mags)
    margins = np.subtract(inner, outer, out=outer)
    return (margins > 0).view(np.uint8), margins


def dizet_decode_batch(received, params: ModulationParams):
    """Decode a (B, N) batch of packets of N >= K+1 samples.

    Returns (bits, margins) arrays of shape (B, K).  The decision rule per
    bit k is scale and phase invariant: bit 1 when
    |Y(R e^{i theta_k})| / c+ < |Y(R^-1 e^{i theta_k})| / c-, where c+- are
    the norms of the weight vectors (R^n) and (R^-n), n = 0..N-1.  Equal
    normalized magnitudes resolve deterministically to bit 0.
    """
    ys = np.atleast_2d(np.asarray(received, dtype=complex))
    K = params.num_bits
    if ys.shape[1] < K + 1:
        raise ValueError(
            f"insufficient length: need at least {K + 1} samples, got {ys.shape[1]}"
        )
    R = params.outer_radius
    outer = np.abs(eval_on_zero_grid(ys, R, K))
    inner = np.abs(eval_on_zero_grid(ys, 1.0 / R, K))
    return decide(outer, inner, R, ys.shape[1])


def dizet_decode(received, params: ModulationParams) -> tuple[np.ndarray, np.ndarray]:
    """Decode one packet of N >= K+1 samples: the (bits, margins) row of a batch of one."""
    y = np.asarray(received, dtype=complex)
    if y.ndim != 1:
        raise ValueError("received must be a one-dimensional sample sequence")
    bits, margins = dizet_decode_batch(y[None, :], params)
    return bits[0], margins[0]
