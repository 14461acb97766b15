"""The BER fade in the sample domain: each packet linearly convolved with its
own taps, the reference that the zero-grid fade is checked against."""

import numpy as np

from moczsim.simulate import _fade_taps


def fade_samples(tx, model: str, rng: np.random.Generator) -> np.ndarray:
    """The (B, N) packets ``tx`` through ``model``'s channel, drawn from ``rng``
    as ``run_ber`` draws them: (B, N + n_taps - 1) full convolutions, or
    ``tx`` itself for ``awgn``."""
    taps = _fade_taps(model, tx.shape[0], rng)
    if taps is None:
        return tx
    return np.array([np.convolve(x, h) for x, h in zip(tx, taps)])
