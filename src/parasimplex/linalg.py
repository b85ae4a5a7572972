"""Basis factorization with rank-one column-replacement updates.

The basis matrix changes by a single column at every simplex pivot, so a full
refactorization per pivot is wasteful. We keep one LU factorization and a
short chain of Sherman-Morrison updates on top of it:

    B_new = B + (a - B e_k) e_k'  =  B (I + p e_k'),   p = B^{-1} a - e_k

so ``B_new^{-1} v = (I - theta p e_k') B^{-1} v`` with ``theta = 1/(1+p_k)``.
The chain only grows; the engine rebuilds the factorization from the basis
columns once it holds ``REFRESH_LIMIT`` entries.
"""

from __future__ import annotations

import warnings
from typing import List, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import SingularBasis, UpdateDegenerate

# Rank-one updates the engine tolerates before it rebuilds the factorization.
REFRESH_LIMIT = 50
# Pivot admissibility: LU diagonal entries (and |1 + p_k| in updates) below
# PIVOT_RTOL * ||B||_inf mean the basis is numerically rank deficient.
PIVOT_RTOL = 1e-11
# Residual contract for solve(): ||B w - v||_inf <= LIN_TOL * (1 + ||v||_inf).
LIN_TOL = 1e-8


class BasisFactorization:
    """LU factorization of a square basis matrix plus an update chain.

    Solves ``B x = v`` and ``B' x = v`` against the *current* basis, i.e.
    with all recorded column replacements applied.
    """

    def __init__(self, B: np.ndarray):
        # Fortran order lets lu_factor overwrite the copy in place.
        B = np.array(B, dtype=float, order="F")
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("basis matrix must be square")
        self.m = B.shape[0]
        self.norm_inf = float(np.abs(B).sum(axis=1).max()) if self.m else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
            self._lu, self._piv = lu_factor(B, overwrite_a=True)
        diag = np.abs(np.diag(self._lu))
        if self.m and (diag.min() < PIVOT_RTOL * self.norm_inf or diag.min() == 0.0):
            raise SingularBasis(
                f"basis matrix has LU pivot {diag.min():.3e} below "
                f"{PIVOT_RTOL:.0e} * ||B||_inf = {PIVOT_RTOL * self.norm_inf:.3e}"
            )
        # update chain entries: (position k, vector p, theta = 1/(1+p_k))
        self._updates: List[Tuple[int, np.ndarray, float]] = []

    @property
    def updates_since_refactor(self) -> int:
        return len(self._updates)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Return ``B^{-1} v`` for the current basis."""
        w = lu_solve((self._lu, self._piv), np.asarray(v, dtype=float))
        for k, p, theta in self._updates:
            w = w - (theta * w[k]) * p
        return w

    def solve_transpose(self, v: np.ndarray) -> np.ndarray:
        """Return ``B^{-T} v`` for the current basis."""
        w = np.array(v, dtype=float, copy=True)
        for k, p, theta in reversed(self._updates):
            w[k] -= theta * (p @ w)
        return lu_solve((self._lu, self._piv), w, trans=1)

    def replace_column(self, k: int, a_new: np.ndarray) -> float:
        """Replace basic position k by column ``a_new``.

        Returns the determinant ratio ``det(B_new)/det(B)``. Raises
        UpdateDegenerate when that ratio is numerically zero (the new column
        lies in the span of the others); the caller should refactorize with
        a different pivot.
        """
        if not 0 <= k < self.m:
            raise IndexError(f"column position {k} out of range")
        p = self.solve(a_new)
        p[k] -= 1.0
        det_ratio = 1.0 + p[k]
        if abs(det_ratio) < PIVOT_RTOL * max(1.0, self.norm_inf):
            raise UpdateDegenerate(
                f"replacement at position {k} makes the basis singular "
                f"(det ratio {det_ratio:.3e})"
            )
        self._updates.append((k, p, 1.0 / det_ratio))
        return float(det_ratio)

    def condition_estimate(self) -> float:
        """Cheap infinity-norm condition estimate (diagnostic only)."""
        if self.m == 0:
            return 1.0
        inv_norm = float(np.abs(self.solve(np.ones(self.m))).max())
        return self.norm_inf * inv_norm

