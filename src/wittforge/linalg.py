"""Dense exact linear algebra over a field (Fraction or QuadExtScalar).

Everything here works on lists of lists of field elements and returns new
lists; inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QuadExtScalar


def _inv(x):
    if isinstance(x, QuadExtScalar):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def row_echelon(rows):
    """Reduced row echelon form: (echelon_rows, pivot_columns), with the
    zero rows at the bottom."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = row_echelon(rows)
    return len(pivots)


def solve_in_span(basis_rows, target):
    """Coefficients c with sum(c_i * basis_rows[i]) == target, or None.

    basis_rows must be linearly independent.
    """
    if not basis_rows:
        return None if any(target) else []
    ncols = len(target)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(len(basis_rows))]
           for i, r in enumerate(basis_rows)]
    ech, pivots = row_echelon(aug)
    # Reduce target against echelon rows, tracking the combination.
    residue = list(target)
    combo = [Fraction(0)] * len(basis_rows)
    for row, p in zip(ech, pivots):
        if p >= ncols:
            break
        if residue[p]:
            f = residue[p]
            residue = [a - f * b for a, b in zip(residue, row[:ncols])]
            combo = [a + f * b for a, b in zip(combo, row[ncols:])]
    if any(residue):
        return None
    return combo


def matrix_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
             for col in zip(*b)] for row in a]


def matrix_add(a, b, c=1):
    """a + c*b, entrywise."""
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def int_matrix_det(m) -> int:
    """Determinant of a square integer matrix (fraction-free via Fractions)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    assert det.denominator == 1
    return det.numerator


def int_matrix_inverse(m):
    """Inverse of a unimodular integer matrix, with integer entries."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    ech, pivots = row_echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = []
    for row in ech[:n]:
        out = []
        for x in row[n:]:
            assert x.denominator == 1
            out.append(x.numerator)
        inv.append(out)
    return inv
