"""Direct polynomial evaluation by Horner's rule: the reference that the
folded-DFT grid evaluation and the decoder are checked against."""

import numpy as np


def eval_at_point(samples, z):
    """Evaluate the sample polynomial sum_n y[n] z^n by Horner's rule.

    ``z`` may be a scalar or an array of points; evaluation is vectorized
    over the points.
    """
    y = np.asarray(samples, dtype=complex)
    if y.size == 0:
        raise ValueError("cannot evaluate an empty sequence")
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zv = np.atleast_1d(zs)
    acc = np.full(zv.shape, y[-1], dtype=complex)
    for coeff in y[-2::-1]:
        acc = acc * zv + coeff
    return complex(acc[0]) if scalar else acc


def eval_on_grid(samples, radius: float, num_bits: int) -> np.ndarray:
    """Values at the K grid points radius * exp(2i*pi*k/K), one point at a time."""
    points = radius * np.exp(2j * np.pi * np.arange(num_bits) / num_bits)
    return eval_at_point(samples, points)


def decode_margins(received, params) -> np.ndarray:
    """Per-bit decoder margins log(|Y(1/R w_k)| / c-) - log(|Y(R w_k)| / c+)."""
    y = np.asarray(received, dtype=complex)
    r = params.outer_radius
    expo = np.arange(y.size)
    c_outer = np.sqrt(np.sum(r ** (2.0 * expo)))
    c_inner = np.sqrt(np.sum(r ** (-2.0 * expo)))
    outer = np.abs(eval_on_grid(y, r, params.num_bits)) / c_outer
    inner = np.abs(eval_on_grid(y, 1.0 / r, params.num_bits)) / c_inner
    return np.log(inner) - np.log(outer)
