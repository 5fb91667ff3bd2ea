"""Pair tables for small clusters and periodic cells (minimum image), and the
scatter that sums per-pair values onto atoms."""

from dataclasses import dataclass

import numpy as np


class SingularGeometryError(ArithmeticError):
    """Two atoms closer than the numerical distance floor."""


class NonFiniteGeometryError(ArithmeticError):
    """A NaN or infinite atom position; its pairs would otherwise drop out unseen."""


R_MIN = 1e-8  # Angstrom; below this a pair is treated as coincident


@dataclass
class PairTable:
    """Ordered pairs (i, j), i != j, with r < cutoff.

    ``unit`` points from atom i to atom j; ``r`` is the pair distance.
    ``half`` selects the i < j subset (each unordered pair once).
    """

    i: np.ndarray
    j: np.ndarray
    r: np.ndarray
    unit: np.ndarray

    @property
    def half(self) -> np.ndarray:
        return self.i < self.j

    def __len__(self) -> int:
        return len(self.r)


def _displacements(positions, cell=None, pbc=None):
    d = positions[..., None, :, :] - positions[..., :, None, :]
    if cell is not None and pbc is not None and np.any(pbc):
        # Nearest periodic image; valid for cells wider than twice the cutoff.
        inv = np.linalg.inv(cell)
        frac = d @ inv
        shift = np.round(frac)
        shift[..., ~np.asarray(pbc, dtype=bool)] = 0.0
        d = d - shift @ cell
    return d


def pair_table(positions, cutoff, cell=None, pbc=None) -> PairTable:
    """Pairs of one frame ``(N, 3)``, or of B frames ``(B, N, 3)`` numbered ``b*N + i``.

    A frame's pairs come in the order of its own one-frame table (row-major in
    i, j), so per-atom sums over a batch equal the frames' own sums bit for bit.
    """
    positions = np.asarray(positions, dtype=float)
    if not np.all(np.isfinite(positions)):
        raise NonFiniteGeometryError("non-finite atom position")
    n = positions.shape[-2]
    if n < 2:
        empty = np.zeros(0)
        return PairTable(empty.astype(int), empty.astype(int), empty, np.zeros((0, 3)))
    d = _displacements(positions, cell, pbc)
    r = np.linalg.norm(d, axis=-1)
    r.reshape(-1, n * n)[:, ::n + 1] = np.inf   # the diagonal of every frame
    if np.any(r < R_MIN):
        *frame, i, j = np.argwhere(r < R_MIN)[0]
        where = f" in frame {frame[0]}" if frame else ""
        raise SingularGeometryError(f"atoms {i} and {j} are coincident (r < {R_MIN} A){where}")
    pairs = np.nonzero(r < cutoff)
    rr = r[pairs]
    unit = d[pairs] / rr[:, None]
    ii, jj = pairs[-2:]
    if positions.ndim == 3:
        ii, jj = pairs[0] * n + ii, pairs[0] * n + jj
    return PairTable(ii, jj, rr, unit)


def scatter_add(index, values, n: int) -> np.ndarray:
    """Row sums onto n atoms: out[a] = sum of values[p] over pairs with index[p] == a.

    One ``bincount`` per column accumulates each atom's sum sequentially in
    pair order, so a pair table's fixed order makes the sums reproducible bit
    for bit; it skips the k-times longer flat index that one bincount over all
    columns needs.  Rows that no pair reaches are exactly zero.
    """
    out = np.empty((n, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(index, weights=values[:, c], minlength=n)
    return out
