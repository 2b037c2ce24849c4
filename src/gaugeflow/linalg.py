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
Both index their rows by column, so a step visits only the rows and
basis rows it changes: ``eliminate`` keeps the rows with a cell in each
column, and ``RowReducer`` keeps its basis by pivot column (see each
docstring for why the result is the same as the full scan's).

The generic rank of a matrix of expressions (the generator columns, a
constraint Jacobian) is sampled: ``sampled_rank`` takes the best exact
rank over seeded random rational points, which by the Schwartz-Zippel
bound equals the generic rank with high probability.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction

from .errors import DivisionByZero, SamplingDegenerate
from .expr import ZERO


class Echelon(namedtuple("Echelon", "rows pivots row_order")):
    """Result of a symbolic forward elimination.

    ``rows`` is the transformed augmented matrix, ``pivots`` the list of
    (row, column) pivot positions in elimination order, and
    ``row_order`` maps transformed row slots back to input rows.  A
    named tuple (equal to any tuple).
    """

    __slots__ = ()

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

    ``holders`` maps each column to the slots of the rows below the
    pivots that have a cell there, so the pivot search is a ``min`` and
    a step with ``piv == prev_pivot`` visits only the rows it changes;
    any other step still rescales every row below the pivot.
    """
    rows = [dict(r) for r in matrix]
    n = len(rows)
    pivots = []
    row_order = list(range(n))
    holders = {}
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(r)
    level = 0
    prev_pivot = None
    for col in column_order:
        slots = holders.get(col)
        if not slots:
            continue
        pivot_row = min(slots)
        for c in rows[pivot_row]:
            holders[c].discard(pivot_row)
        if pivot_row != level:
            for c in rows[level]:
                moved = holders[c]
                moved.discard(level)
                moved.add(pivot_row)
            rows[level], rows[pivot_row] = rows[pivot_row], rows[level]
            row_order[level], row_order[pivot_row] = row_order[pivot_row], row_order[level]
        top = rows[level]
        piv = top[col]
        same_pivot = piv == prev_pivot
        # rows without a cell in col are rescaled only, which leaves
        # their cells in place; a row with one always loses it
        for r in (list(slots) if same_pivot else range(level + 1, n)):
            entry = rows[r].get(col)
            new_row = {c: x * piv for c, x in rows[r].items()}
            if entry is not None:
                for c, t in top.items():
                    x = new_row.get(c, ZERO) - t * entry
                    if x.is_zero():
                        del new_row[c]
                        holders[c].discard(r)
                    else:
                        if c not in new_row:
                            holders.setdefault(c, set()).add(r)
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


def _lower(c):
    """``c`` with an integral Fraction lowered to its int numerator."""
    return c.numerator if c.denominator == 1 else c


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
    """Exact values of a matrix of expressions at ``point``, an integral
    value as an ``int``; a cell that evaluates to 0 leaves its row.
    Raises :class:`DivisionByZero` at a pole."""
    return [{c: _lower(value) for c, e in row.items() if (value := e.evaluate(point))}
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
    """Incremental exact row reduction over ints and Fractions.

    Feed rows ``{column: value}`` one at a time; ``absorb`` reduces a row
    against the current basis and, if a nonzero remainder survives,
    keeps it and reports True.  A basis row's pivot is its lowest
    column, and reducing a row touches only the cells of the basis rows
    that meet it.  Used by :func:`rational_rank` and, reading one
    column as a right-hand side, by ``solve``.

    ``reduce`` looks basis rows up by pivot column and clears the row's
    pivot columns in increasing order.  Every basis row's cells lie at
    or right of its pivot, so a cleared column stays clear.  The
    remainder, zero at every pivot column, is unique: a nonzero
    combination of basis rows is nonzero at the lowest pivot among the
    rows it uses.  So any order of clearing gives the same remainder,
    and the basis is the same whatever the walk.
    """

    def __init__(self):
        self.basis = []  # (pivot column, row) pairs in absorption order
        self._by_pivot = {}

    def reduce(self, row):
        """``row`` reduced against the basis, as its nonzero cells."""
        row = dict(row)
        by_pivot = self._by_pivot
        todo = [c for c in row if c in by_pivot]
        heapq.heapify(todo)
        while todo:
            col = heapq.heappop(todo)
            f = row.get(col)
            if not f:
                continue  # cleared already, or queued twice
            base = by_pivot[col]
            p = base[col]
            if type(f) is int and type(p) is int:
                factor = f // p if f % p == 0 else Fraction(f, p)
            else:
                factor = f / p
            for c, b in base.items():
                value = row.get(c, 0)
                if not value and c in by_pivot:
                    heapq.heappush(todo, c)  # fill-in, always right of col
                row[c] = value - factor * b
        return {c: value for c, value in row.items() if value}

    def absorb(self, row):
        row = self.reduce(row)
        if row:
            col = min(row)
            self.basis.append((col, row))
            self._by_pivot[col] = row
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
