"""Exact dense linear algebra over the rationals.

The engine itself needs only `vec_dot`: its covariance systems are
multinomial and are inverted in closed form in `enlargement`.
`min_norm_solve` stays as the general minimum-norm solver of small
symmetric systems, which tests use to cross-check those closed forms.
Matrices are lists of lists of rationals.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .rational import ZERO, Q, _dot


def vec_dot(a: Sequence[Q], b: Sequence[Q]) -> Q:
    return _dot(a, b)


def solve_linear(A: Sequence[Sequence[Q]], b: Sequence[Q]) -> Optional[list[Q]]:
    """One solution of A x = b, or None when inconsistent."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(A[r]) + [b[r]] for r in range(m)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if aug[r][col] != ZERO), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != ZERO:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n] != ZERO:
            return None
    x = [ZERO] * n
    for r, c in pivots:
        x[c] = aug[r][n]
    return x


def min_norm_solve(V: Sequence[Sequence[Q]], b: Sequence[Q]) -> Optional[list[Q]]:
    """Minimum-norm solution of V x = b for symmetric V, or None.

    The solution set is (particular + kernel), and for symmetric V the
    range is the orthogonal complement of the kernel, so the minimizer is
    the one solution x = V y in the range.  V V y = b is consistent
    exactly when V x = b is, since V V and V share their range.
    """
    VV = [[vec_dot(row, col) for col in V] for row in V]
    y = solve_linear(VV, b)
    if y is None:
        return None
    return [vec_dot(row, y) for row in V]
