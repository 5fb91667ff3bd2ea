"""The checked pair tables of small clusters and periodic cells (minimum image),
and the scatter that sums per-pair values onto atoms."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class SingularGeometryError(ArithmeticError):
    """Two atoms closer than the numerical distance floor; ``frames`` lists the
    frames of a batch that have such a pair (empty for one frame)."""

    def __init__(self, message, frames=()):
        super().__init__(message)
        self.frames = tuple(frames)


class NonFiniteGeometryError(ArithmeticError):
    """A NaN or infinite atom position; its pairs would otherwise drop out unseen."""


R_MIN = 1e-8  # Angstrom; below this a pair is treated as coincident


@dataclass
class PairTable:
    """Ordered pairs (i, j), i != j, with r < cutoff.

    ``unit`` points from atom i to atom j; ``r`` is the pair distance.
    """

    i: np.ndarray
    j: np.ndarray
    r: np.ndarray
    unit: np.ndarray

    def __len__(self) -> int:
        return len(self.r)


def _minimum_image(d, cutoff, cell, pbc):
    """Displacements ``d`` (..., 3) taken to their nearest periodic image: the only
    one in range if the cell is at least twice the cutoff wide across each periodic
    axis.  An axis's width is the cell volume over the area of the face that the
    other two axes span."""
    cell = np.asarray(cell, dtype=float)
    faces = np.cross(cell[[1, 2, 0]], cell[[2, 0, 1]])
    with np.errstate(divide="ignore", invalid="ignore"):   # a flat cell: 0 or nan wide
        widths = abs(np.linalg.det(cell)) / np.linalg.norm(faces, axis=1)
    narrow = np.asarray(pbc, dtype=bool) & ~(widths >= 2.0 * cutoff)
    if narrow.any():
        k = int(np.argmax(narrow))
        raise ValueError(f"periodic cell is {widths[k]:g} A wide across axis {k}, less than "
                         f"twice the cutoff ({2.0 * cutoff:g} A): one image per pair "
                         "would miss others in range")
    shift = np.round(d @ np.linalg.inv(cell))
    shift[..., ~np.asarray(pbc, dtype=bool)] = 0.0
    return d - shift @ cell


@lru_cache(maxsize=2)
def _pair_index(n: int):
    """Atoms i and j of the n*(n-1) ordered pairs i != j of n atoms, row-major in
    (i, j); shared by every call with n atoms, so read-only.  An integration or
    a data set's tables use one atom count at a time, so two counts are kept,
    16*n*(n-1) bytes each."""
    i, j = np.divmod(np.flatnonzero(~np.eye(n, dtype=bool)), n)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def pair_table(positions, cutoff, cell=None, pbc=None) -> PairTable:
    """Pairs of one frame ``(N, 3)``, or of B frames ``(B, N, 3)`` numbered ``b*N + i``;
    across a periodic axis each pair is taken to its minimum image.

    A frame's pairs come in the order of its own one-frame table (row-major in
    i, j), so per-atom sums over a batch equal the frames' own sums bit for bit.
    When every pair is in range the table is the whole pair index of N atoms,
    whose arrays are shared between calls; a one-frame table's ``i`` and ``j``
    may be read-only.  A non-finite position raises NonFiniteGeometryError, and
    two atoms closer than ``R_MIN`` raise SingularGeometryError naming the first
    such pair; for B frames its message names that pair's frame and its
    ``frames`` every frame at fault.  A cell narrower than twice the pair
    ``cutoff`` across a periodic axis raises ValueError, since the minimum image
    is then not the only image in range.
    """
    positions = np.asarray(positions, dtype=float)
    if not np.isfinite(positions).all():
        raise NonFiniteGeometryError("non-finite atom position")
    n, batch = positions.shape[-2], positions.ndim > 2
    i, j = _pair_index(n)
    if batch and len(positions) != 1:   # frame b's atoms are b*N + i
        first = n * np.arange(len(positions))[:, None]
        i, j = (first + i).ravel(), (first + j).ravel()
    atoms = positions.reshape(-1, 3)
    d = atoms.take(j, axis=0) - atoms.take(i, axis=0)
    if cell is not None and pbc is not None and np.any(pbc):
        d = _minimum_image(d, cutoff, cell, pbc)
    r = np.sqrt(np.add.reduce(d * d, axis=-1))   # np.linalg.norm's own operations
    if np.minimum.reduce(r, initial=np.inf) < R_MIN:
        close = np.flatnonzero(r < R_MIN)
        frames = i[close] // n
        where = f" in frame {frames[0]}" if batch else ""
        raise SingularGeometryError(f"atoms {i[close[0]] % n} and {j[close[0]] % n} are "
                                    f"coincident (r < {R_MIN} A){where}",
                                    np.unique(frames).tolist() if batch else ())
    if not np.maximum.reduce(r, initial=-np.inf) < cutoff:   # some pairs out of range
        pairs = np.flatnonzero(r < cutoff)
        i, j, r, d = i[pairs], j[pairs], r[pairs], d[pairs]
    return PairTable(i, j, r, d / r[:, None])


def scatter_add(index, values, n: int) -> np.ndarray:
    """Row sums onto n atoms: out[a] = sum of values[p] over pairs with index[p] == a.

    One ``bincount`` per column accumulates each atom's sum sequentially in
    pair order, so a pair table's fixed order makes the sums reproducible bit
    for bit; it skips the k-times longer flat index that one bincount over all
    columns needs.  Rows that no pair reaches are exactly zero.  A column is
    read without a copy when it is contiguous, as in the transpose of a C-ordered
    (k, P) array.
    """
    out = np.empty((n, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(index, weights=values[:, c], minlength=n)
    return out
