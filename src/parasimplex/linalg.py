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
An all-slack base (k = 0, the slack start) is a permutation: each solve is
one gather, by the slack rows or by their inverse, with no core solve.

Chain. The basis changes by a single column at every simplex pivot, so a
full refactorization per pivot is wasteful. Replacing position k by a gives

    B_new = B + (a - B e_k) e_k'  =  B (I + p e_k'),   p = B^{-1} a - e_k

with p solved against the current basis. After r such updates, the bordered
(Schur-complement) form of Gill, Murray, Saunders & Wright (1984) keeps the
replaced positions K, the m x r block P whose column i is p_i, and the r x r
lower-triangular F with F[i, i] = 1 + p_i[k_i] (the determinant ratio of
update i) and F[i, j] = p_j[k_i] for j < i. Each update appends one column
to P and one row to F. Then

    B_r^{-1} v  = w0 - P F^{-1} w0[K],            w0 = B_0^{-1} v
    B_r^{-T} v  = B_0^{-T} (v - E_K F^{-T} P' v)

where E_K scatters onto the positions K, which may repeat. Both equal the
sequential Sherman-Morrison chain, and each adds to the base solve one GEMV
with P and one r x r triangular solve, whatever r is. The BTRAN of a unit
vector e_k, a pivot's row, skips the GEMV: P' e_k is row k of P, read as
is (Hall & McKinnon, "Hyper-sparsity in the revised simplex method and how
to exploit it", 2005, on unit right-hand sides). The core LU is solved
by LAPACK ``getrs`` called directly, after one finiteness test of the
right-hand side.

Entering slack columns are ordinary columns to the chain. The chain only
grows; the engine rebuilds the factorization from the basis columns once it
holds ``REFRESH_LIMIT`` entries. So P and F are allocated at that capacity
by the first update, when the factorization a refresh replaced is already
freed and its block can be reused, and grow only when a caller goes beyond
it. A pivot has already solved ``B p = a`` for its ratio test, so
``replace_column`` reuses the last ``solve`` when it is handed that same
column object.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs, dtrtrs

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
        self._slack_pos = is_slack.nonzero()[0]
        self._struct_pos = (~is_slack).nonzero()[0]
        self._rows = slack_rows[self._slack_pos]
        self.m = m
        covered = np.zeros(m, dtype=bool)
        covered[self._rows] = True
        if int(covered.sum()) < len(self._rows):
            raise SingularBasis("two basis positions hold the same slack column")
        self.norm_inf = float(m > 0)
        self._lu: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if not k:  # B is a permutation: B x = v is x = v[rows], B' y = w is y = w[inv]
            self._inv = np.empty(m, dtype=np.intp)
            self._inv[self._rows] = self._slack_pos
        else:
            self._core_rows = (~covered).nonzero()[0]
            self._cols_r = cols.take(self._rows, axis=0)
            row_abs = np.abs(cols).sum(axis=1)
            row_abs[self._rows] += 1.0
            self.norm_inf = float(row_abs.max())
            # Fortran order lets lu_factor overwrite the gathered core in place.
            core = np.asfortranarray(cols.take(self._core_rows, axis=0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
                self._lu = lu_factor(core, overwrite_a=True)
            diag = np.abs(np.diag(self._lu[0]))
            if diag.min() < PIVOT_RTOL * self.norm_inf or diag.min() == 0.0:
                raise SingularBasis(
                    f"basis matrix has LU pivot {diag.min():.3e} below "
                    f"{PIVOT_RTOL:.0e} * ||B||_inf = {PIVOT_RTOL * self.norm_inf:.3e}"
                )
        # bordered update chain: storage for K, P and F, and views of the
        # r entries in use (K[:r], P[:, :r], F[:, :r]). trtrs is handed the
        # Fortran-contiguous F[:, :r], whose leading dimension locates the
        # r x r block, so the block is never copied.
        self._K = np.empty(0, dtype=np.intp)
        self._P = np.empty((m, 0), order="F")
        self._F = np.empty((0, 0), order="F")
        self._in_use = (self._K, self._P, self._F)
        # (v, B^{-1} v) of the last solve against the current basis
        self._last_solve: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def updates_since_refactor(self) -> int:
        return len(self._in_use[0])

    def _core_solve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        """Solve the core system in place of ``rhs``, a fresh array."""
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = dgetrs(*self._lu, rhs, trans=trans, overwrite_b=1)
        if info:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x

    def _base_solve(self, v: np.ndarray) -> np.ndarray:
        if self._lu is None:
            return v.take(self._rows)
        x = np.empty(self.m)
        x_s = self._core_solve(v[self._core_rows], 0)
        x[self._struct_pos] = x_s
        x[self._slack_pos] = v[self._rows] - self._cols_r @ x_s
        return x

    def _base_solve_transpose(self, w: np.ndarray) -> np.ndarray:
        if self._lu is None:
            return w.take(self._inv)
        y = np.empty(self.m)
        y_r = w[self._slack_pos]
        y[self._rows] = y_r
        y[self._core_rows] = self._core_solve(
            w[self._struct_pos] - self._cols_r.T @ y_r, 1)
        return y

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Return ``B^{-1} v`` for the current basis."""
        w = self._base_solve(np.asarray(v, dtype=float))
        K, P, F = self._in_use
        if len(K):
            w -= np.dot(P, dtrtrs(F, w[K], 1, 0)[0])
        self._last_solve = (v, w)
        return w

    def solve_transpose(self, v: Union[int, np.ndarray]) -> np.ndarray:
        """Return ``B^{-T} v`` for the current basis; an int k stands for
        the unit vector e_k, whose ``P' e_k`` is row k of P, read as is."""
        unit = isinstance(v, (int, np.integer))
        w = np.zeros(self.m) if unit else np.array(v, dtype=float, copy=True)
        if unit:
            w[v] = 1.0
        K, P, F = self._in_use
        if len(K):
            np.subtract.at(w, K, dtrtrs(F, P[v] if unit else np.dot(w, P), 1, 1)[0])
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
        r = len(self._in_use[0])
        if r == len(self._K):
            self._grow()
        p = self._P[:, r]  # column r joins the views in use below
        last = self._last_solve
        p[:] = last[1] if last is not None and last[0] is a_new else self.solve(a_new)
        p[k] -= 1.0
        det_ratio = 1.0 + p[k]
        if abs(det_ratio) < PIVOT_RTOL * max(1.0, self.norm_inf):
            raise UpdateDegenerate(
                f"replacement at position {k} makes the basis singular "
                f"(det ratio {det_ratio:.3e})"
            )
        self._K[r] = k
        self._F[r, :r] = self._P[k, :r]
        self._F[r, r] = det_ratio
        self._in_use = (self._K[:r + 1], self._P[:, :r + 1], self._F[:, :r + 1])
        self._last_solve = None
        return float(det_ratio)

    def _grow(self) -> None:
        """Make room for REFRESH_LIMIT updates, or double the room beyond
        that, keeping the entries in use."""
        r = len(self._in_use[0])
        cap = max(REFRESH_LIMIT, 2 * r)
        K = np.empty(cap, dtype=np.intp)
        P = np.empty((self.m, cap), order="F")
        F = np.empty((cap, cap), order="F")
        K[:r], P[:, :r], F[:r, :r] = self._K, self._P, self._F
        self._K, self._P, self._F = K, P, F
