"""The zero pattern a message selects, and the mean end-sample energy of the
codebook: closed forms that the encoder is checked against."""

import numpy as np

from moczsim.huffman import ModulationParams


def encode_zeros(bits, params: ModulationParams) -> np.ndarray:
    """Zero pattern exp(2i*pi*(k-1)/K) * R^(2*m_k - 1) selected by the bits."""
    m = np.asarray(bits)
    if m.shape != (params.num_bits,) or not np.isin(m, (0, 1)).all():
        raise ValueError(f"expected {params.num_bits} bits of 0 or 1, got {m!r}")
    m = m.astype(np.int64)
    angles = 2.0 * np.pi * np.arange(params.num_bits) / params.num_bits
    return np.exp(1j * angles) * params.outer_radius ** (2 * m - 1)


def expected_end_energy(params: ModulationParams) -> float:
    """Mean of |x_0|^2 (= |x_K|^2) over uniformly random messages.

    Closed form 2^-K (1 + R^2)^K / (1 + R^2K), evaluated in log space so the
    intermediate powers cannot overflow.
    """
    K = params.num_bits
    log_r = np.log(params.outer_radius)
    log_val = (
        K * np.log1p(params.outer_radius**2)
        - K * np.log(2.0)
        - np.logaddexp(0.0, 2.0 * K * log_r)
    )
    return float(np.exp(log_val))
