"""Exact linear algebra over expressions and rationals.

Symbolic elimination runs fraction-free (Bareiss) so intermediate
entries stay polynomial whenever the input is.  It does no work on zero
cells; because ``Expression`` arithmetic always lands on one canonical
form, the cells it computes equal the dense Bareiss formula's exactly.
``RowReducer`` is the one Gaussian elimination over ``Fraction``.  It
keeps each basis row as its nonzero (column, value) pairs and updates a
row in place on those columns only, so a reduction costs the basis
rows' support rather than the matrix width.  ``rational_rank`` absorbs
a matrix's rows into one reducer, ``run_dirac`` tests rank growth at a
surface point with one, and the surface sampler solves its
momentum-affine constraints at each point with ``RowReducer.solve``.

The generic rank of a matrix of expressions (a velocity Hessian, the
generator columns, a constraint Jacobian) is sampled: ``sampled_rank``
takes the best exact rank over seeded random rational points, which by
the Schwartz-Zippel bound equals the generic rank with high probability.
``jacobian`` (which reads each expression's memoized gradient) and
``evaluate_rows`` build and evaluate such matrices without touching
cells that are zero.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, SamplingDegenerate
from .expr import ZERO


class Echelon:
    """Result of a symbolic forward elimination.

    ``rows`` is the transformed augmented matrix, ``pivots`` the list of
    (row, column) pivot positions in elimination order, and
    ``row_order`` maps transformed row slots back to input rows.
    """

    def __init__(self, rows, pivots, row_order):
        self.rows = rows
        self.pivots = pivots
        self.row_order = row_order

    @property
    def rank(self):
        return len(self.pivots)


def eliminate(matrix, column_order=None):
    """Fraction-free forward elimination on a matrix of Expressions.

    ``matrix`` is a list of equal-length lists; extra columns beyond
    ``column_order`` ride along as an augmented part.  Columns are
    processed in ``column_order`` (default: left to right); within a
    column the pivot is the first remaining row with a nonzero entry.
    Deterministic for a fixed input.

    Each step replaces every cell below the pivot row ``top`` by
    ``(row[c]*piv - top[c]*entry) / prev_pivot``, skipping zero work:
    a row whose pivot-column ``entry`` is zero is left alone when
    ``piv == prev_pivot``; otherwise only nonzero cells are scaled by
    ``piv``, ``top[c]*entry`` is subtracted only where ``entry`` and
    ``top[c]`` are nonzero, and only nonzero results are divided by
    ``prev_pivot``.  Expressions are canonical, so each cell equals the
    dense formula's value exactly.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    width = len(rows[0]) if rows else 0
    cols = list(column_order) if column_order is not None else list(range(width))
    pivots = []
    row_order = list(range(n))
    level = 0
    prev_pivot = None
    for col in cols:
        pivot_row = None
        for r in range(level, n):
            if not rows[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != level:
            rows[level], rows[pivot_row] = rows[pivot_row], rows[level]
            row_order[level], row_order[pivot_row] = row_order[pivot_row], row_order[level]
        top = rows[level]
        piv = top[col]
        support = [c for c in range(width) if not top[c].is_zero()]
        for r in range(level + 1, n):
            row = rows[r]
            entry = row[col]
            if entry.is_zero() and piv == prev_pivot:
                continue  # row * piv / prev_pivot is the row itself
            new_row = [x if x.is_zero() else x * piv for x in row]
            if not entry.is_zero():
                for c in support:
                    new_row[c] = new_row[c] - top[c] * entry
            if prev_pivot is not None:
                new_row = [x if x.is_zero() else x / prev_pivot for x in new_row]
            rows[r] = new_row
        pivots.append((level, col))
        prev_pivot = piv
        level += 1
    return Echelon(rows, pivots, row_order)


def rational_rank(matrix):
    """Rank of a matrix of Fractions: its rows absorbed into one
    :class:`RowReducer`."""
    reducer = RowReducer(len(matrix[0]) if matrix else 0)
    for row in matrix:
        reducer.absorb(row)
    return reducer.rank


def random_rational(rng):
    """A small random rational, the coordinate of every sampled point."""
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def jacobian(exprs, variables):
    """Matrix of partial derivatives, one row per expression; a cell
    whose variable the expression does not mention is ``ZERO``."""
    rows = []
    for e in exprs:
        grad = e.gradient()
        rows.append([grad.get(v, ZERO) for v in variables])
    return rows


def evaluate_rows(matrix, point):
    """Exact values of a matrix of expressions at ``point``; a zero cell
    is 0 without evaluation.  Raises :class:`DivisionByZero` at a pole."""
    return [[0 if e.is_zero() else e.evaluate(point) for e in row] for row in matrix]


def sampled_rank(matrix, options, rng):
    """Generic rank of a matrix of expressions, sampled.

    The best :func:`rational_rank` over up to ``options.sample_count``
    random rational points drawn from ``rng`` (one point, with no draws,
    when no entry mentions a variable), stopping once the rank is full.
    A point at a pole of some entry is skipped; raises
    :class:`SamplingDegenerate` when every point is.
    """
    if not matrix:
        return 0
    free = set()
    for row in matrix:
        for e in row:
            if not e.is_zero():
                free |= e.variables()
    free = sorted(free)
    full = min(len(matrix), len(matrix[0]))
    best = None
    for _ in range(options.sample_count if free else 1):
        point = {v: random_rational(rng) for v in free}
        try:
            numeric = evaluate_rows(matrix, point)
        except DivisionByZero:
            continue
        best = max(best or 0, rational_rank(numeric))
        if best == full:
            break
    if best is None:
        raise SamplingDegenerate("every sampled point is a pole of the matrix")
    return best


class RowReducer:
    """Incremental exact row reduction over Fractions.

    Feed rows one at a time; ``absorb`` reduces a row against the
    current basis and, if a nonzero remainder survives, keeps it and
    reports True.  Used for rank-growth tests, for :func:`rational_rank`
    and, reading the last column as a right-hand side, by ``solve``.
    """

    def __init__(self, width):
        self.width = width
        # each basis row as its nonzero (column, value) pairs; the first is its pivot
        self.basis = []

    def reduce(self, row):
        row = list(row)
        for support in self.basis:
            col, piv = support[0]
            f = row[col]
            if f:
                factor = f / piv
                for c, b in support:
                    row[c] -= factor * b
        return row

    def absorb(self, row):
        row = self.reduce(row)
        support = [(c, val) for c, val in enumerate(row) if val]
        if support:
            self.basis.append(support)
        return bool(support)

    @property
    def rank(self):
        return len(self.basis)

    def solve(self, rng):
        """One exact solution of the absorbed rows read as an augmented
        system (the last column is the right-hand side), as one value per
        other column; None when the system is inconsistent.

        Back-substitutes from the last pivot column.  A free column gets
        :func:`random_rational` the first time a pivot row meets it, and
        columns no pivot row meets are drawn last, in column order.  Every
        echelon form of the rows meets the free columns in that order.
        """
        rhs = self.width - 1
        rows = sorted(self.basis, key=lambda support: support[0][0], reverse=True)
        if rows and rows[0][0][0] == rhs:
            return None  # a row reads 0 = nonzero
        values = [None] * rhs
        for (col, piv), *rest in rows:
            acc = Fraction(0)
            for c, a in rest:
                if c == rhs:
                    acc += a
                    continue
                if values[c] is None:
                    values[c] = random_rational(rng)
                acc -= a * values[c]
            values[col] = acc / piv
        return [random_rational(rng) if v is None else v for v in values]
