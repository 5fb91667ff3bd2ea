"""Radial atomic-environment descriptors with analytic derivatives.

The k-th descriptor of atom i is sum_j exp(-w_k (r_ij - c_k)^2) * f_cut(r_ij),
summed over neighbors inside the cutoff.  f_cut is a C2 polynomial envelope
whose value and derivative vanish at the cutoff.
"""

import math
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
        if not 0.0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if not np.all((0.0 < self.centers) & (self.centers <= self.cutoff)):
            raise ValueError("centers must lie in (0, cutoff]")
        if not np.all((0.0 < self.widths) & (self.widths < math.inf)):
            raise ValueError("widths must be positive and finite")

    @classmethod
    def default(cls, cutoff: float = 5.0, n_radial: int = 8,
                first_center: float = 1.0, trainable_basis: bool = False):
        with np.errstate(invalid="ignore"):   # an infinite cutoff fails in __post_init__
            centers = np.linspace(first_center, cutoff, n_radial)
        spacing = centers[1] - centers[0] if n_radial > 1 else cutoff
        widths = np.full(n_radial, 1.0 / (2.0 * spacing**2))
        return cls(n_radial, centers, widths, cutoff, trainable_basis)


def envelope(r, cutoff):
    """Cutoff envelope and its radial derivative over [0, cutoff].

    When every r / cutoff lies in [0, 1), as for the pairs of a pair table,
    the clip and the masks would return their input, so they are skipped.
    """
    r = np.asarray(r, dtype=float)
    x = r / cutoff
    if len(x) and 0.0 <= x.min() and x.max() < 1.0:
        s, ds = quintic_switch(x)
        return s, ds / cutoff
    s, ds = quintic_switch(np.clip(x, 0.0, 1.0))
    beyond = r >= cutoff
    return np.where(beyond, 0.0, s), np.where(beyond, 0.0, ds / cutoff)


def basis_values(r, centers, widths, cutoff, with_param_grads=False, env=None):
    """Per-pair basis values e (P, K) plus de/dr, and optionally the
    basis-parameter derivatives de/dc, de/dw, d2e/drdc, d2e/drdw.

    The arrays are computed pair-contiguous, so the broadcasts run along the
    long pair axis: e and the parameter derivatives are (P, K) views of
    C-ordered (K, P) arrays, whose columns are contiguous.  de/dr alone is
    written C-ordered (P, K), the layout in which the force contraction
    ``einsum("pd,pd->p", de, ...)`` keeps its bits.  Every element is the same
    sequence of IEEE operations in either layout, so the values do not depend
    on it.  ``env`` is ``envelope(r, cutoff)`` when the caller keeps it.
    """
    r = np.asarray(r, dtype=float)
    fc, dfc = envelope(r, cutoff) if env is None else env
    w = widths[:, None]
    dr = np.subtract(r, centers[:, None])
    q = np.square(dr)
    dr2 = q.copy() if with_param_grads else None
    q *= -w
    np.exp(q, out=q)
    # de/dr = q * (-2 w dr * fc + fc'), over dr unless the parameter derivatives need it
    a = np.multiply(-2.0 * w, dr, out=None if with_param_grads else dr)
    a *= fc
    a += dfc
    de_dr = np.empty(q.shape[::-1])
    np.multiply(q, a, out=de_dr.T)
    extra = None
    if with_param_grads:
        de_dc = q * 2.0
        de_dc *= w
        de_dc *= dr
        de_dc *= fc
        de_dw = -q
        de_dw *= dr2
        de_dw *= fc
        d2_rc = 2.0 * w * dr
        d2_rc *= a
        d2_rc += 2.0 * w * fc
        d2_rc *= q
        d2_rw = -dr2
        d2_rw *= a
        d2_rw -= dr * 2.0 * fc
        d2_rw *= q
        extra = (de_dc.T, de_dw.T, d2_rc.T, d2_rw.T)
    e = np.multiply(q, fc, out=q)
    return e.T, de_dr, extra
