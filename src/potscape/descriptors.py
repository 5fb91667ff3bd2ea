"""Radial atomic-environment descriptors with analytic derivatives.

The k-th descriptor of atom i is sum_j exp(-w_k (r_ij - c_k)^2) * f_cut(r_ij),
summed over neighbors inside the cutoff.  f_cut is a C2 polynomial envelope
whose value and derivative vanish at the cutoff.
"""

from dataclasses import dataclass

import numpy as np

from .potentials import quintic_switch


@dataclass
class DescriptorSpec:
    n_radial: int
    centers: np.ndarray   # (K,) A
    widths: np.ndarray    # (K,) 1/A^2
    cutoff: float         # A
    trainable_basis: bool = False

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        self.widths = np.asarray(self.widths, dtype=float)
        if len(self.centers) != self.n_radial or len(self.widths) != self.n_radial:
            raise ValueError("centers/widths length must equal n_radial")
        if np.any(self.centers <= 0) or np.any(self.centers > self.cutoff):
            raise ValueError("centers must lie in (0, cutoff]")
        if np.any(self.widths <= 0):
            raise ValueError("widths must be positive")

    @classmethod
    def default(cls, cutoff: float = 5.0, n_radial: int = 8,
                first_center: float = 1.0, trainable_basis: bool = False):
        centers = np.linspace(first_center, cutoff, n_radial)
        spacing = centers[1] - centers[0] if n_radial > 1 else cutoff
        widths = np.full(n_radial, 1.0 / (2.0 * spacing**2))
        return cls(n_radial, centers, widths, cutoff, trainable_basis)


def envelope(r, cutoff):
    """Cutoff envelope and its radial derivative over [0, cutoff]."""
    s, ds = quintic_switch(np.clip(np.asarray(r, dtype=float) / cutoff, 0.0, 1.0))
    beyond = np.asarray(r) >= cutoff
    return np.where(beyond, 0.0, s), np.where(beyond, 0.0, ds / cutoff)


def basis_values(r, centers, widths, cutoff, with_param_grads=False):
    """Per-pair basis values e (P, K) plus de/dr, and optionally the
    basis-parameter derivatives de/dc, de/dw, d2e/drdc, d2e/drdw."""
    r = np.asarray(r, dtype=float)
    fc, dfc = envelope(r, cutoff)
    dr = r[:, None] - centers[None, :]                # (P, K)
    q = np.exp(-widths[None, :] * dr**2)
    e = q * fc[:, None]
    # de/dr = q * (-2 w dr * fc + fc')
    a = -2.0 * widths[None, :] * dr * fc[:, None] + dfc[:, None]
    de_dr = q * a
    if not with_param_grads:
        return e, de_dr, None
    de_dc = q * 2.0 * widths[None, :] * dr * fc[:, None]
    de_dw = -q * dr**2 * fc[:, None]
    d2_rc = q * (2.0 * widths[None, :] * dr * a + 2.0 * widths[None, :] * fc[:, None])
    d2_rw = q * (-(dr**2) * a - 2.0 * dr * fc[:, None])
    return e, de_dr, (de_dc, de_dw, d2_rc, d2_rw)
