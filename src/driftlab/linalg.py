"""Exact dense linear algebra over the rationals.

The engine itself needs only `vec_dot`: its covariance systems are
multinomial and are inverted in closed form in `enlargement`.
`min_norm_solve` stays as the general minimum-norm solver of small
symmetric systems, which tests use to cross-check those closed forms.
Matrices are lists of lists of rationals.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .rational import ZERO, Q


def vec_dot(a: Sequence[Q], b: Sequence[Q]) -> Q:
    return sum((x * y for x, y in zip(a, b)), ZERO)


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


def row_space_basis(A: Sequence[Sequence[Q]]) -> list[list[Q]]:
    """Independent rows spanning the row space (row-reduced form)."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [list(r) for r in A]
    basis: list[list[Q]] = []
    col = 0
    r0 = 0
    while r0 < m and col < n:
        sel = next((r for r in range(r0, m) if rows[r][col] != ZERO), None)
        if sel is None:
            col += 1
            continue
        rows[r0], rows[sel] = rows[sel], rows[r0]
        pv = rows[r0][col]
        rows[r0] = [x / pv for x in rows[r0]]
        for r in range(m):
            if r != r0 and rows[r][col] != ZERO:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[r0])]
        basis.append(rows[r0])
        r0 += 1
        col += 1
    return basis


def project_onto_span(x: Sequence[Q], basis: Sequence[Sequence[Q]]) -> list[Q]:
    """Orthogonal projection via unnormalized Gram-Schmidt (stays rational)."""
    ortho: list[list[Q]] = []
    for v in basis:
        u = list(v)
        for w in ortho:
            c = vec_dot(u, w) / vec_dot(w, w)
            u = [a - c * b for a, b in zip(u, w)]
        if any(a != ZERO for a in u):
            ortho.append(u)
    out = [ZERO] * len(x)
    for w in ortho:
        c = vec_dot(x, w) / vec_dot(w, w)
        out = [a + c * b for a, b in zip(out, w)]
    return out


def min_norm_solve(V: Sequence[Sequence[Q]], b: Sequence[Q]) -> Optional[list[Q]]:
    """Minimum-norm solution of V x = b for symmetric V, or None.

    The solution set is (particular + kernel); for symmetric V the row space
    is the orthogonal complement of the kernel, so projecting any solution
    onto the row space gives the norm minimizer.
    """
    x = solve_linear(V, b)
    if x is None:
        return None
    return project_onto_span(x, row_space_basis(V))
