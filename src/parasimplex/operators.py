"""Constraint matrices as operators, so structured ones are never formed.

The engine reads a program's constraint matrix A only through five
operations, and every operator here implements them:

    column(j)             A[:, j]
    columns(S)            A[:, S], the gather that refresh factors
    times_columns(S, x)   A[:, S] @ x, for an x that is zero off S
    rmatvec(y)            A' y
    unit_rows(S)          per j in S, i where A[:, j] = e_i, else -1

where x and y may also be blocks with one column per vector, so a batch
costs one product, and the two gathers take no unit column (the engine
places those entries by their ``unit_rows``); plus ``shape``, ``nbytes``
(the bytes the operator holds) and ``to_dense()``, which forms the matrix
for code that needs it on small programs (the oracle, file output and
``verify_certificate``). Negative column indices count from the end; any
outside [-n, n), or a unit column given to a gather, raises IndexError.
Each constructor checks its factors for non-finite entries and names the
factor in its error.

Kinds:
    DenseMatrix(M)   any matrix given as an array
    Gram(X)          G = X'X (d x d) held as X (n x d); a product is X'(X u)
    Kron(X, Z)       G = Z' kron X held as X and Z; G vec(U) = vec(X U Z)
    SupNorm(G)       [[G, -G], [-G, G]] held as G, one G product per product
    WithSlacks(A)    [A | I] held as A, the standard form of a <= program
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# A' y reads only the rows of A where y is nonzero when they are at most this
# share of all rows; gathering rows costs 3-5x a plain A' y per row read.
SPARSE_ROWS_FRAC = 0.2


def _finite(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError(f"non-finite entries in {name}")
    return M


def _sparse_support(y: np.ndarray):
    """The rows where y (a vector or a block) is nonzero, or None when they
    are too many for a gather to pay."""
    rows = (y if y.ndim == 1 else y.any(axis=1)).nonzero()[0]
    return None if rows.size > SPARSE_ROWS_FRAC * len(y) else rows


def _in_range(S, n: int):
    """Column indices S (an int or an int array) of an n-column operator,
    counted from 0; raises IndexError outside [-n, n). An array costs a min
    and a max; the modulo runs only when it holds a negative index."""
    lo, hi = (S.min(initial=0), S.max(initial=-1)) if isinstance(S, np.ndarray) else (S, S)
    if lo < -n or hi >= n:
        raise IndexError(f"column index out of range for {n} columns")
    return S % n if lo < 0 else S


class Operator:
    """Base of the operator kinds; ``as_operator`` wraps anything else."""

    shape: Tuple[int, int]
    nbytes: int  # the bytes the operator holds

    def unit_rows(self, S: np.ndarray) -> np.ndarray:
        """-1 for every column in S: only WithSlacks has unit columns."""
        return np.full(len(_in_range(S, self.shape[1])), -1, dtype=np.intp)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._rmatvec_into(y, np.empty((self.shape[1],) + y.shape[1:]))

    def _rmatvec_into(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A' y written into ``out``, so an operator wrapping this one fills
        one buffer. Each kind defines this or ``rmatvec``."""
        out[...] = self.rmatvec(y)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(shape={self.shape})"


def as_operator(M, name: str = "A") -> Operator:
    """M itself when it is an operator, else M wrapped as a DenseMatrix."""
    return M if isinstance(M, Operator) else DenseMatrix(M, name)


class DenseMatrix(Operator):
    """A matrix held as a C-contiguous array."""

    def __init__(self, M, name: str = "A"):
        self.M = np.ascontiguousarray(np.atleast_2d(_finite(M, name)))
        self.shape = self.M.shape
        self.nbytes = self.M.nbytes

    def column(self, j: int) -> np.ndarray:
        return self.M[:, j]

    def columns(self, S: np.ndarray) -> np.ndarray:
        return self.M[:, S]

    def times_columns(self, S: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.M[:, S] @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``M' y``, reading only the rows in the support of y when that
        support is small. Basis solves leave y zero on every slack row the
        update chain has not touched."""
        rows = _sparse_support(y)
        return self.M.T @ y if rows is None else (y[rows].T @ self.M[rows]).T

    def to_dense(self) -> np.ndarray:
        return self.M


class Gram(Operator):
    """G = X'X for X of shape (n, d), held as X: every product costs
    O(nd), against the O(d^2) of G itself when d > n."""

    def __init__(self, X, name: str = "X"):
        self.X = np.atleast_2d(_finite(X, name))
        d = self.X.shape[1]
        self.shape = (d, d)
        self.nbytes = self.X.nbytes

    def column(self, j: int) -> np.ndarray:
        return self.X.T @ self.X[:, j]

    def columns(self, S: np.ndarray) -> np.ndarray:
        return self.X.T @ self.X[:, S]

    def times_columns(self, S: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.X.T @ (self.X[:, S] @ x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        rows = _sparse_support(y)  # G is symmetric, so G' y = G y
        u = self.X @ y if rows is None else self.X[:, rows] @ y[rows]
        return self.X.T @ u

    def to_dense(self) -> np.ndarray:
        return self.X.T @ self.X


class Kron(Operator):
    """G = Z' kron X for X (m1 x d1) and Z (d2 x m2), held as X and Z.

    G maps a column-major vec(U) of a d1 x d2 matrix U to vec(X U Z), and
    G' maps vec(W) of an m1 x m2 matrix W to vec(X' W Z'). Column
    ``a + d1 * b`` is ``kron(Z[b], X[:, a])``.
    """

    def __init__(self, X, Z, names: Tuple[str, str] = ("X", "Z")):
        self.X = np.atleast_2d(_finite(X, names[0]))
        self.Z = np.atleast_2d(_finite(Z, names[1]))
        (m1, d1), (d2, m2) = self.X.shape, self.Z.shape
        self.shape = (m1 * m2, d1 * d2)
        self.nbytes = self.X.nbytes + self.Z.nbytes

    def _pairs(self, S) -> Tuple[np.ndarray, np.ndarray]:
        """The (row of D, column of D) of each flat index in S."""
        b, a = np.divmod(S, self.X.shape[1])
        return a, b

    def column(self, j: int) -> np.ndarray:
        b, a = divmod(int(j), self.X.shape[1])  # _pairs' np.divmod costs 1.5 us on one int
        return (self.Z[b][:, None] * self.X[:, a]).ravel()  # np.kron, minus its overhead

    def columns(self, S: np.ndarray) -> np.ndarray:
        a, b = self._pairs(S)
        # entry (i + m1 * l, s) is X[i, a_s] * Z[b_s, l]
        return (self.Z[b].T[:, None, :] * self.X[:, a][None, :, :]).reshape(
            self.shape[0], len(S))

    def times_columns(self, S: np.ndarray, x: np.ndarray) -> np.ndarray:
        a, b = self._pairs(S)
        # one X[:, a] diag(x) Z[b] per column of x, stacked first
        P = (self.X[:, a] * np.atleast_2d(x.T)[:, None, :]) @ self.Z[b]
        return np.moveaxis(P, 0, -1).reshape((-1,) + x.shape[1:], order="F")

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        m1, m2 = self.X.shape[0], self.Z.shape[1]
        if y.ndim == 1:  # vec(X' W Z') read row-major is Z W' X: two GEMMs, no copy
            return (self.Z @ (y.reshape(m2, m1) @ self.X)).ravel()
        # one m1 x m2 matrix W per column of y, stacked first
        W = y.reshape((m1, m2, -1), order="F").transpose(2, 0, 1)
        return (self.X.T @ W @ self.Z.T).transpose(1, 2, 0).reshape(
            (self.shape[1],) + y.shape[1:], order="F")

    def to_dense(self) -> np.ndarray:
        return np.kron(self.Z.T, self.X)


class SupNorm(Operator):
    """A = [[G, -G], [-G, G]] over a G of shape (r, d), held as G.

    Split column j < d is G's column j and column d + j its negation, and
    the bottom half of every column negates the top half, so each product
    with A is one product with G:

        A[:, S] x_S = [G u; -G u]    u the signed sum of the split columns
        A' y        = [G' w; -G' w]  w = y_top - y_bottom
    """

    def __init__(self, G: Operator):
        self.G = G
        r, d = G.shape
        self.shape = (2 * r, 2 * d)
        self.nbytes = G.nbytes

    def _split(self, S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """G's column and the sign of each split column in S."""
        d = self.G.shape[1]
        S = _in_range(S, 2 * d)
        return S % d, np.where(S < d, 1.0, -1.0)

    def column(self, j: int) -> np.ndarray:
        r, d = self.G.shape
        j = _in_range(j, 2 * d)
        top, col = self.G.column(j % d), np.empty((2, r))  # [top; -top], negated for j >= d
        col[int(j >= d)] = top
        np.negative(top, out=col[int(j < d)])
        return col.ravel()

    def columns(self, S: np.ndarray) -> np.ndarray:
        idx, sign = self._split(S)
        top = self.G.columns(idx) * sign
        return np.vstack([top, -top])

    def times_columns(self, S: np.ndarray, x: np.ndarray) -> np.ndarray:
        idx, sign = self._split(S)
        top = self.G.times_columns(idx, (sign * x.T).T)
        return np.concatenate([top, -top])

    def _rmatvec_into(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        r, d = self.G.shape
        v = self.G.rmatvec(y[:r] - y[r:])
        out[:d] = v
        np.negative(v, out=out[d:])
        return out

    def to_dense(self) -> np.ndarray:
        G = self.G.to_dense()
        return np.block([[G, -G], [-G, G]])


class WithSlacks(Operator):
    """[A | I] for an m x n operator A, held as A: column n + i is the unit
    vector e_i and is never stored. Each product is one product with A."""

    def __init__(self, A: Operator):
        self.A = as_operator(A)
        m, n = self.A.shape
        self.shape = (m, n + m)
        self.nbytes = self.A.nbytes

    def unit_rows(self, S: np.ndarray) -> np.ndarray:
        n = self.A.shape[1]
        S = _in_range(S, self.shape[1])
        return np.where(S >= n, S - n, -1)

    def column(self, j: int) -> np.ndarray:
        n = self.A.shape[1]
        j = _in_range(j, self.shape[1])
        if j < n:
            return self.A.column(j)
        e = np.zeros(self.shape[0])
        e[j - n] = 1.0
        return e

    def columns(self, S: np.ndarray) -> np.ndarray:
        return self.A.columns(_in_range(S, self.shape[1]))

    def times_columns(self, S: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.A.times_columns(_in_range(S, self.shape[1]), x)

    def _rmatvec_into(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        n = self.A.shape[1]
        out[n:] = y
        self.A._rmatvec_into(y, out[:n])  # [A'y; y] in one buffer
        return out

    def to_dense(self) -> np.ndarray:
        return np.hstack([self.A.to_dense(), np.eye(self.shape[0])])
