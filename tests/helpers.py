"""Test-side diagnostics of sampled fields."""

import numpy as np


def divergence_defect(v) -> float:
    """max_k |k . u_hat(k)| / max_k |u_hat(k)| of a ``VectorFieldGrid``, zero
    mode excluded."""
    spec = np.fft.fftn(v.components, axes=tuple(range(1, v.grid.d + 1)))
    dot = np.zeros(v.grid.shape, dtype=complex)
    for ax, k in enumerate(v.grid.wavenumbers):
        dot += k * spec[ax]
    denom = np.abs(spec).max()
    if denom == 0.0:
        return 0.0
    return float(np.abs(dot).max() / denom)
