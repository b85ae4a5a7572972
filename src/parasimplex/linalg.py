"""Basis factorization with rank-one column-replacement updates.

Split base. A basis of a standard-form <= program is mostly slack columns,
each a unit vector e_i (``operators.WithSlacks``). Split the basis
positions into the slack slots, whose unit columns cover a row set R, and
the k structural slots S. The k rows R_bar that no slack covers give the
k x k core ``A[R_bar, S]``, and only the core is LU-factored:

    B x = v:    A[R_bar, S] x_S = v[R_bar],     x_slack = v[R] - A[R, S] x_S
    B' y = w:   y_R = w_slack,                  A[R_bar, S]' y_R_bar = w_S - A[R, S]' y_R

Each solve costs O(mk + k^2), against O(m^2) for an LU of the whole m x m
basis. The base BTRAN copies y_R from the slack entries of w, so rows whose
slack slot has a zero right-hand side come out exactly zero. A basis with no
slack slots (``BasisFactorization(B)``) is the k = m case of the same code.

Chain. The basis changes by a single column at every simplex pivot, so a
full refactorization per pivot is wasteful. On top of the base solve we keep
a short chain of Sherman-Morrison updates:

    B_new = B + (a - B e_k) e_k'  =  B (I + p e_k'),   p = B^{-1} a - e_k

so ``B_new^{-1} v = (I - theta p e_k') B^{-1} v`` with ``theta = 1/(1+p_k)``.
Entering slack columns are ordinary columns to the chain. The chain only
grows; the engine rebuilds the factorization from the basis columns once it
holds ``REFRESH_LIMIT`` entries. A pivot has already solved ``B p = a`` for
its ratio test, so ``replace_column`` reuses the last ``solve`` when it is
handed that same column object.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import SingularBasis, UpdateDegenerate

# Rank-one updates the engine tolerates before it rebuilds the factorization.
REFRESH_LIMIT = 50
# Pivot admissibility: LU diagonal entries (and |1 + p_k| in updates) below
# PIVOT_RTOL * ||B||_inf mean the basis is numerically rank deficient.
PIVOT_RTOL = 1e-11


class BasisFactorization:
    """LU factorization of a basis's structural core plus an update chain.

    Solves ``B x = v`` and ``B' x = v`` against the *current* basis, i.e.
    with all recorded column replacements applied.

    Args:
        cols: the m x k structural columns, in basis-position order.
        slack_rows: per basis position, the row i of its unit column e_i, or
            -1 where the position holds the next column of ``cols``. None
            means every position is structural, so ``cols`` is the whole
            square basis.
    """

    def __init__(self, cols: np.ndarray, slack_rows: Optional[Sequence[int]] = None):
        cols = np.asarray(cols, dtype=float)
        if cols.ndim != 2:
            raise ValueError("basis columns must form a matrix")
        m, k = cols.shape
        if slack_rows is None:
            if m != k:
                raise ValueError("basis matrix must be square")
            slack_rows = np.full(m, -1, dtype=np.intp)
        slack_rows = np.asarray(slack_rows, dtype=np.intp)
        is_slack = slack_rows >= 0
        if slack_rows.shape != (m,) or m - int(is_slack.sum()) != k:
            raise ValueError(f"{k} structural columns do not fill {m} basis slots")
        self.m = m
        self._slack_pos = np.flatnonzero(is_slack)
        self._struct_pos = np.flatnonzero(~is_slack)
        self._rows = slack_rows[is_slack]
        covered = np.zeros(m, dtype=bool)
        covered[self._rows] = True
        if int(covered.sum()) < len(self._rows):
            raise SingularBasis("two basis positions hold the same slack column")
        self._core_rows = np.flatnonzero(~covered)
        self._cols_r = cols[self._rows]
        row_abs = np.abs(cols).sum(axis=1)
        row_abs[self._rows] += 1.0
        self.norm_inf = float(row_abs.max()) if m else 0.0
        self._lu: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if k:
            # Fortran order lets lu_factor overwrite the gathered core in place.
            core = np.asfortranarray(cols[self._core_rows])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
                self._lu = lu_factor(core, overwrite_a=True)
            diag = np.abs(np.diag(self._lu[0]))
            if diag.min() < PIVOT_RTOL * self.norm_inf or diag.min() == 0.0:
                raise SingularBasis(
                    f"basis matrix has LU pivot {diag.min():.3e} below "
                    f"{PIVOT_RTOL:.0e} * ||B||_inf = {PIVOT_RTOL * self.norm_inf:.3e}"
                )
        # update chain entries: (position k, vector p, theta = 1/(1+p_k))
        self._updates: List[Tuple[int, np.ndarray, float]] = []
        # (v, B^{-1} v) of the last solve against the current basis
        self._last_solve: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def updates_since_refactor(self) -> int:
        return len(self._updates)

    def _core_solve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        return lu_solve(self._lu, rhs, trans=trans) if self._lu is not None else rhs

    def _base_solve(self, v: np.ndarray) -> np.ndarray:
        x = np.empty(self.m)
        x_s = self._core_solve(v[self._core_rows], 0)
        x[self._struct_pos] = x_s
        x[self._slack_pos] = v[self._rows] - self._cols_r @ x_s
        return x

    def _base_solve_transpose(self, w: np.ndarray) -> np.ndarray:
        y = np.empty(self.m)
        y_r = w[self._slack_pos]
        y[self._rows] = y_r
        y[self._core_rows] = self._core_solve(
            w[self._struct_pos] - self._cols_r.T @ y_r, 1)
        return y

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Return ``B^{-1} v`` for the current basis."""
        w = self._base_solve(np.asarray(v, dtype=float))
        for k, p, theta in self._updates:
            w = w - (theta * w[k]) * p
        self._last_solve = (v, w)
        return w

    def solve_transpose(self, v: np.ndarray) -> np.ndarray:
        """Return ``B^{-T} v`` for the current basis."""
        w = np.array(v, dtype=float, copy=True)
        for k, p, theta in reversed(self._updates):
            w[k] -= theta * (p @ w)
        return self._base_solve_transpose(w)

    def replace_column(self, k: int, a_new: np.ndarray) -> float:
        """Replace basic position k by column ``a_new``.

        Returns the determinant ratio ``det(B_new)/det(B)``. Raises
        UpdateDegenerate when that ratio is numerically zero (the new column
        lies in the span of the others); the caller should refactorize with
        a different pivot.

        When ``a_new`` is the very array the last ``solve`` was given, that
        solve's result is reused instead of solving again; neither array
        may have been changed in place since.
        """
        if not 0 <= k < self.m:
            raise IndexError(f"column position {k} out of range")
        last = self._last_solve
        if last is not None and last[0] is a_new:
            p = last[1].copy()
        else:
            p = self.solve(a_new)
        p[k] -= 1.0
        det_ratio = 1.0 + p[k]
        if abs(det_ratio) < PIVOT_RTOL * max(1.0, self.norm_inf):
            raise UpdateDegenerate(
                f"replacement at position {k} makes the basis singular "
                f"(det ratio {det_ratio:.3e})"
            )
        self._updates.append((k, p, 1.0 / det_ratio))
        self._last_solve = None
        return float(det_ratio)
