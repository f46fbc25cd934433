"""Dense exact linear algebra over a field (Fraction or QuadExtScalar).

Everything here works on lists of lists of field elements and returns new
lists; inputs are never mutated.

Gaussian elimination is written once, in `row_echelon`, and every span
question goes through `span_frame`: one elimination of a family's rows
augmented by the identity serves all the vectors asked about it, whether
they are solved over the family (`solve_in_span`), are the family itself
(its basis and frame) or are unit vectors (`inverse`).
"""

from __future__ import annotations

from fractions import Fraction


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
        inv = Fraction(1) / m[r][c]
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
    return len(row_echelon(rows)[1])


def span_frame(rows):
    """One elimination of `rows` augmented by the identity.

    Returns (basis, transform, coordinates, pivots): `basis` is the reduced
    echelon basis of the span of `rows`, `transform` the matrix T with
    basis = T rows, `coordinates` the matrix X with rows = X basis, read off
    each row at the basis' pivot columns `pivots` (the echelon is reduced).
    The rows may be dependent; X then has more rows than the basis.
    """
    n = len(rows)
    width = len(rows[0]) if n else 0
    ech, pivots = row_echelon(
        [list(r) + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)])
    pivots = [c for c in pivots if c < width]
    rank = len(pivots)
    return ([r[:width] for r in ech[:rank]], [r[width:] for r in ech[:rank]],
            [[r[c] for c in pivots] for r in rows], pivots)


def solve_in_span(rows, targets):
    """For each target, coefficients c with sum(c_i * rows[i]) == target, or
    None when the target is outside the span of `rows`. One elimination
    serves every target; the rows may be dependent."""
    if not rows:
        return [None if any(t) else [] for t in targets]
    basis, transform, _, pivots = span_frame(rows)
    out = []
    for target in targets:
        # reduce the target against the echelon basis, tracking the
        # combination of the rows
        residue = list(target)
        combo = [Fraction(0)] * len(rows)
        for row, tr, p in zip(basis, transform, pivots):
            if residue[p]:
                f = residue[p]
                residue = [a - f * b for a, b in zip(residue, row)]
                combo = [a + f * b for a, b in zip(combo, tr)]
        out.append(None if any(residue) else combo)
    return out


def matrix_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
             for col in zip(*b)] for row in a]


def matrix_add(a, b, c=1):
    """a + c*b, entrywise."""
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def inverse(m):
    """Inverse of a square matrix over the field: row i holds the
    coordinates of the i-th unit vector over the rows of m."""
    n = len(m)
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inv = solve_in_span(m, unit)
    if None in inv:
        raise ValueError("singular matrix")
    return inv


def int_matrix_inverse(m):
    """Inverse of a unimodular integer matrix, with integer entries: the
    field `inverse` of m, which is integral exactly when det = +-1."""
    inv = inverse(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("non-integral inverse")
    return [[x.numerator for x in row] for row in inv]
