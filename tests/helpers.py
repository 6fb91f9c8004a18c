"""Test-side diagnostics of sampled fields, and reference implementations."""

import numpy as np

from nsfarfield.forcing import AssumptionReport, ForceModel, _measurement_lattice


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


def validate_assumptions_reference(f: ForceModel, epsilon: float,
                                   points_per_axis: int = 128,
                                   time_samples: int = 129) -> AssumptionReport:
    """``forcing.validate_assumptions`` as one lattice pass per time sample:
    the force is summed term by term at each midpoint time and its norm
    taken there, with no separation of the time factor."""
    if not f.terms:
        return AssumptionReport(0.0, 0.0, 0.0, target=epsilon)

    pts, cell = _measurement_lattice(f, points_per_axis)
    radii = np.linalg.norm(pts, axis=-1)
    t_end = max(f.support_end(), 1e-6)
    dt = t_end / time_samples
    times = (np.arange(time_samples) + 0.5) * dt

    space_weight = (1.0 + radii) ** (f.d + 2)
    profiles = [term.profile.value(pts) for term in f.terms]
    eps_f1 = 0.0
    l1 = 0.0
    f3 = 0.0
    for t in times:
        force = np.zeros(pts.shape)
        for term, rho in zip(f.terms, profiles):
            tau = float(term.time_profile.value(t))
            force += (rho * tau)[..., None] * np.asarray(term.amplitude)
        mag = np.linalg.norm(force, axis=-1)
        ratio = mag * np.maximum(space_weight, (1.0 + t) ** ((f.d + 2) / 2.0))
        eps_f1 = max(eps_f1, float(ratio.max(initial=0.0)))
        l1 += float(mag.sum()) * cell * dt
        f3 = max(f3, (1.0 + t) ** 0.5 * float((radii * mag).sum()) * cell)
    return AssumptionReport(eps_f1, l1, f3, target=epsilon)
