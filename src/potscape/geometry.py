"""The checked pair tables of small clusters and periodic cells (minimum image),
and the scatter that sums per-pair values onto atoms."""

from dataclasses import dataclass

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


def _displacements(positions, cutoff, cell=None, pbc=None):
    d = positions[..., None, :, :] - positions[..., :, None, :]
    if cell is not None and pbc is not None and np.any(pbc):
        # Nearest periodic image: the only one in range if the cell is at least
        # twice the cutoff wide across each periodic axis.  An axis's width is the
        # cell volume over the area of the face that the other two axes span.
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
        inv = np.linalg.inv(cell)
        frac = d @ inv
        shift = np.round(frac)
        shift[..., ~np.asarray(pbc, dtype=bool)] = 0.0
        d = d - shift @ cell
    return d


def pair_table(positions, cutoff, cell=None, pbc=None) -> PairTable:
    """Pairs of one frame ``(N, 3)``, or of B frames ``(B, N, 3)`` numbered ``b*N + i``;
    across a periodic axis each pair is taken to its minimum image.

    A frame's pairs come in the order of its own one-frame table (row-major in
    i, j), so per-atom sums over a batch equal the frames' own sums bit for bit.
    A non-finite position raises NonFiniteGeometryError, and two atoms closer than
    ``R_MIN`` raise SingularGeometryError naming the first such pair; for B frames
    its message names that pair's frame and its ``frames`` every frame at fault.
    A cell narrower than twice the pair ``cutoff`` across a periodic axis raises
    ValueError, since the minimum image is then not the only image in range.
    """
    positions = np.asarray(positions, dtype=float)
    if not np.isfinite(positions).all():
        raise NonFiniteGeometryError("non-finite atom position")
    n = positions.shape[-2]
    d = _displacements(positions, cutoff, cell, pbc)
    r = np.linalg.norm(d, axis=-1)
    r.reshape(r.shape[:-2] + (n * n,))[..., ::n + 1] = np.inf
    if (r < R_MIN).any():
        close = np.argwhere(r < R_MIN)
        *frame, i, j = close[0]
        where = f" in frame {frame[0]}" if frame else ""
        raise SingularGeometryError(f"atoms {i} and {j} are coincident (r < {R_MIN} A){where}",
                                    np.unique(close[:, 0]).tolist() if frame else ())
    pairs = np.flatnonzero(r < cutoff)   # row-major: frame, then i, then j
    rr = r.ravel()[pairs]
    unit = d.reshape(-1, 3)[pairs] / rr[:, None]
    ii, j = np.divmod(pairs, n)   # ii = b*N + i
    return PairTable(ii, ii - ii % n + j, rr, unit)


def scatter_add(index, values, n: int, out=None) -> np.ndarray:
    """Row sums onto n atoms: out[a] = sum of values[p] over pairs with index[p] == a.

    One ``bincount`` per column accumulates each atom's sum sequentially in
    pair order, so a pair table's fixed order makes the sums reproducible bit
    for bit; it skips the k-times longer flat index that one bincount over all
    columns needs.  Rows that no pair reaches are exactly zero.  A column is
    read without a copy when it is contiguous, as in the transpose of a C-ordered
    (k, P) array.  The sums are written into ``out`` if it is given.
    """
    out = np.empty((n, values.shape[1])) if out is None else out
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(index, weights=values[:, c], minlength=n)
    return out
