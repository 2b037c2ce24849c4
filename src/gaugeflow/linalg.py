"""Exact linear algebra over expressions and rationals.

Every matrix here is a list of rows, each row a dict ``{column index:
value}`` that holds the row's nonzero cells only; the number of columns
is not stored, and a caller that needs it passes it.  ``jacobian`` and
``evaluate_rows`` build such rows, and the eliminations below read and
write them, so no loop visits a zero cell.

Symbolic elimination runs fraction-free (Bareiss) so intermediate
entries stay polynomial whenever the input is; because ``Expression``
arithmetic always lands on one canonical form, the cells it computes
equal the dense Bareiss formula's exactly.  ``RowReducer`` is the one
Gaussian elimination over ``Fraction``: ``rational_rank`` absorbs a
matrix's rows into one reducer, and the surface sampler solves its
momentum-affine constraints at each point with ``RowReducer.solve``.

The generic rank of a matrix of expressions (the generator columns, a
constraint Jacobian) is sampled: ``sampled_rank`` takes the best exact
rank over seeded random rational points, which by the Schwartz-Zippel
bound equals the generic rank with high probability.
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


def eliminate(matrix, column_order):
    """Fraction-free forward elimination on rows of Expressions.

    Columns are processed in ``column_order``; columns it leaves out
    ride along as an augmented part.  Within a column the pivot is the
    first remaining row with a cell there.  Deterministic for a fixed
    input.

    Each step replaces every row below the pivot row ``top`` by
    ``(row*piv - top*entry) / prev_pivot``, with ``entry`` the row's cell
    in the pivot column.  A row without that cell is left alone when
    ``piv == prev_pivot``; cells that cancel leave the row.  Expressions
    are canonical, so each cell equals the dense formula's value exactly.
    """
    rows = [dict(r) for r in matrix]
    n = len(rows)
    pivots = []
    row_order = list(range(n))
    level = 0
    prev_pivot = None
    for col in column_order:
        pivot_row = next((r for r in range(level, n) if col in rows[r]), None)
        if pivot_row is None:
            continue
        if pivot_row != level:
            rows[level], rows[pivot_row] = rows[pivot_row], rows[level]
            row_order[level], row_order[pivot_row] = row_order[pivot_row], row_order[level]
        top = rows[level]
        piv = top[col]
        same_pivot = piv == prev_pivot
        for r in range(level + 1, n):
            entry = rows[r].get(col)
            if entry is None and same_pivot:
                continue  # row * piv / prev_pivot is the row itself
            new_row = {c: x * piv for c, x in rows[r].items()}
            if entry is not None:
                for c, t in top.items():
                    x = new_row.get(c, ZERO) - t * entry
                    if x.is_zero():
                        del new_row[c]
                    else:
                        new_row[c] = x
            if prev_pivot is not None:
                new_row = {c: x / prev_pivot for c, x in new_row.items()}
            rows[r] = new_row
        pivots.append((level, col))
        prev_pivot = piv
        level += 1
    return Echelon(rows, pivots, row_order)


def rational_rank(matrix):
    """Rank of a matrix of Fractions: its rows absorbed into one
    :class:`RowReducer`."""
    reducer = RowReducer()
    for row in matrix:
        reducer.absorb(row)
    return reducer.rank


def random_rational(rng):
    """A small random rational, the coordinate of every sampled point."""
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def jacobian(exprs, variables):
    """Matrix of first partials, one row per expression and one column
    per variable, from each expression's memoized gradient."""
    index = {v: c for c, v in enumerate(variables)}
    return [{index[v]: d for v, d in e.gradient().items() if v in index}
            for e in exprs]


def evaluate_rows(matrix, point):
    """Exact values of a matrix of expressions at ``point``; a cell that
    evaluates to 0 leaves its row.  Raises :class:`DivisionByZero` at a
    pole."""
    return [{c: value for c, e in row.items() if (value := e.evaluate(point))}
            for row in matrix]


def sampled_rank(matrix, width, options, rng):
    """Generic rank of a matrix of expressions with ``width`` columns,
    sampled.

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
        for e in row.values():
            free |= e.variables()
    free = sorted(free)
    full = min(len(matrix), width)
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

    Feed rows ``{column: value}`` one at a time; ``absorb`` reduces a row
    against the current basis and, if a nonzero remainder survives,
    keeps it and reports True.  A basis row's pivot is its lowest
    column, and reducing a row touches only the cells of the basis rows
    that meet it.  Used by :func:`rational_rank` and, reading one
    column as a right-hand side, by ``solve``.
    """

    def __init__(self):
        self.basis = []  # (pivot column, row) pairs in absorption order

    def reduce(self, row):
        """``row`` reduced against the basis, as its nonzero cells."""
        row = dict(row)
        for col, base in self.basis:
            f = row.get(col)
            if f:
                factor = f / base[col]
                for c, b in base.items():
                    row[c] = row.get(c, 0) - factor * b
        return {c: value for c, value in row.items() if value}

    def absorb(self, row):
        row = self.reduce(row)
        if row:
            self.basis.append((min(row), row))
        return bool(row)

    @property
    def rank(self):
        return len(self.basis)

    def solve(self, rhs_column, rng):
        """One exact solution of the absorbed rows read as an augmented
        system whose right-hand side is ``rhs_column``, the highest
        column; one value per lower column, or None when the system is
        inconsistent.

        Back-substitutes from the last pivot column, walking each row's
        cells in column order.  A free column gets
        :func:`random_rational` the first time a pivot row meets it, and
        columns no pivot row meets are drawn last, in column order.
        Every echelon form of the rows meets the free columns in that
        order.
        """
        rows = sorted(self.basis, key=lambda pair: pair[0], reverse=True)
        if rows and rows[0][0] == rhs_column:
            return None  # a row reads 0 = nonzero
        values = [None] * rhs_column
        for col, row in rows:
            acc = Fraction(0)
            for c in sorted(row)[1:]:
                if c == rhs_column:
                    acc += row[c]
                    continue
                if values[c] is None:
                    values[c] = random_rational(rng)
                acc -= row[c] * values[c]
            values[col] = acc / row[col]
        return [random_rational(rng) if v is None else v for v in values]
