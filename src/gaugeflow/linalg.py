"""Exact linear algebra over expressions and rationals.

Symbolic elimination runs fraction-free (Bareiss) so intermediate
entries stay polynomial whenever the input is.  It does no work on zero
cells; because ``Expression`` arithmetic always lands on one canonical
form, the cells it computes equal the dense Bareiss formula's exactly.
Rational-matrix routines are plain Gaussian elimination over
``Fraction``.
"""

from __future__ import annotations


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
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    rows = [list(r) for r in matrix if any(x != 0 for x in r)]
    rank = 0
    width = len(matrix[0]) if matrix else 0
    for col in range(width):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                factor = f / piv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


class RowReducer:
    """Incremental exact row reduction over Fractions.

    Feed rows one at a time; ``absorb`` reduces a row against the
    current basis and, if a nonzero remainder survives, keeps it and
    reports True.  Used for cheap rank-growth tests.
    """

    def __init__(self, width):
        self.width = width
        self.basis = []  # list of (pivot_col, row)

    def reduce(self, row):
        row = list(row)
        for col, base in self.basis:
            if row[col]:
                factor = row[col] / base[col]
                row = [a - factor * b for a, b in zip(row, base)]
        return row

    def absorb(self, row):
        row = self.reduce(row)
        for col, val in enumerate(row):
            if val:
                self.basis.append((col, row))
                return True
        return False

    @property
    def rank(self):
        return len(self.basis)
