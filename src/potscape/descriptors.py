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


class Workspace:
    """Named arrays that evaluations write into instead of allocating.

    ``ws(name, shape)`` returns an array of that shape over the first elements
    of the buffer kept under ``name``; the buffer is reallocated only when a
    request needs more room than it has.  So repeated evaluations reuse the same
    memory, and evaluations of different sizes can share one workspace.  An
    array holds what its last writer put there.
    """

    def __init__(self):
        self._arrays = {}   # name -> (buffer, last array handed out)

    def __call__(self, name, shape, dtype=float):
        kept = self._arrays.get(name)
        if kept is not None and kept[1].shape == shape and kept[1].dtype == dtype:
            return kept[1]
        size = math.prod(shape)
        if kept is None or len(kept[0]) < size or kept[0].dtype != dtype:
            buf = np.empty(size, dtype)
        else:
            buf = kept[0]
        arr = buf[:size].reshape(shape)
        self._arrays[name] = (buf, arr)
        return arr


def new_array(name, shape, dtype=float):
    """The workspace that keeps nothing: a new array for every request.  For
    one-off evaluations, such as MD steps, whose shapes change from call to call."""
    return np.empty(shape, dtype)


def basis_values(r, centers, widths, cutoff, with_param_grads=False, env=None,
                 ws=None, out=None):
    """Per-pair basis values e (P, K) plus de/dr, and optionally the
    basis-parameter derivatives de/dc, de/dw, d2e/drdc, d2e/drdw.

    The arrays are computed pair-contiguous, so the broadcasts run along the
    long pair axis: e and the parameter derivatives are (P, K) views of
    C-ordered (K, P) arrays, whose columns are contiguous.  de/dr alone is
    written C-ordered (P, K), the layout in which the force contraction
    ``einsum("pd,pd->p", de, ...)`` keeps its bits.  Every element is the same
    sequence of IEEE operations in either layout, so the values do not depend
    on it.

    ``env`` is ``envelope(r, cutoff)`` when the caller keeps it.  Intermediates
    and e are written into the Workspace ``ws``, the derivatives into ``out``
    (by default ``ws``; ``new_array`` if neither is given), so the returned
    arrays are overwritten by the next call that writes the same workspaces.
    """
    ws = new_array if ws is None else ws
    out = ws if out is None else out
    r = np.asarray(r, dtype=float)
    fc, dfc = envelope(r, cutoff) if env is None else env
    shape = (len(centers), len(r))
    w = widths[:, None]
    dr = np.subtract(r, centers[:, None], out=ws("basis.dr", shape))
    q = np.square(dr, out=ws("basis.q", shape))
    if with_param_grads:
        dr2 = ws("basis.dr2", shape)
        dr2[...] = q
    q *= -w
    np.exp(q, out=q)
    # de/dr = q * (-2 w dr * fc + fc'), over dr unless the parameter derivatives need it
    a = np.multiply(-2.0 * w, dr, out=ws("basis.a", shape) if with_param_grads else dr)
    a *= fc
    a += dfc
    de_dr = out("basis.de_dr", shape[::-1])
    np.multiply(q, a, out=de_dr.T)
    extra = None
    if with_param_grads:
        tmp = ws("basis.tmp", shape)
        de_dc = np.multiply(q, 2.0, out=out("basis.de_dc", shape))
        de_dc *= w
        de_dc *= dr
        de_dc *= fc
        de_dw = np.negative(q, out=out("basis.de_dw", shape))
        de_dw *= dr2
        de_dw *= fc
        d2_rc = np.multiply(2.0 * w, dr, out=out("basis.d2_rc", shape))
        d2_rc *= a
        d2_rc += np.multiply(2.0 * w, fc, out=tmp)
        d2_rc *= q
        d2_rw = np.negative(dr2, out=out("basis.d2_rw", shape))
        d2_rw *= a
        tmp = np.multiply(dr, 2.0, out=tmp)
        tmp *= fc
        d2_rw -= tmp
        d2_rw *= q
        extra = (de_dc.T, de_dw.T, d2_rc.T, d2_rw.T)
    e = np.multiply(q, fc, out=q)
    return e.T, de_dr, extra
