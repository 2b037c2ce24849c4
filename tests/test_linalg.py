"""Exact linear algebra: sparse elimination and sampled ranks.

``dense_eliminate`` is the textbook loop that updates every cell of
every row; ``eliminate`` skips zero work and must give the same
``Echelon`` exactly, cell for cell.  ``dense_rational_rank`` and
``DenseRowReducer`` are the dense ``Fraction`` loops that the sparse
``rational_rank`` and ``RowReducer`` must agree with.  ``sampled_rank`` is checked for
the random draws it consumes as well as the rank it returns.
"""

import random
from fractions import Fraction

import pytest

from gaugeflow import Expression, Options
from gaugeflow.errors import SamplingDegenerate
from gaugeflow.linalg import (
    Echelon,
    RowReducer,
    eliminate,
    evaluate_rows,
    jacobian,
    random_rational,
    rational_rank,
    sampled_rank,
)

from conftest import X, Y, Z, random_polynomial


def dense_eliminate(matrix, column_order=None):
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
        piv = rows[level][col]
        for r in range(level + 1, n):
            entry = rows[r][col]
            new_row = []
            for c in range(width):
                val = rows[r][c] * piv - rows[level][c] * entry
                if prev_pivot is not None and not val.is_zero():
                    val = val / prev_pivot
                new_row.append(val)
            rows[r] = new_row
        pivots.append((level, col))
        prev_pivot = piv
        level += 1
    return Echelon(rows, pivots, row_order)


ZERO = Expression.const(0)
COORDS = [X, Y, Z]


def sparse_system(rng, n, density):
    """An n x n block of coordinate polynomials, mostly zero, plus an
    augmented column affine in momenta, as a Hessian and its momentum
    column are; one row is a polynomial combination of two others, so
    the rank drops and a row eliminates to a momentum relation."""
    block = [[random_polynomial(rng, COORDS, max_terms=2, max_exp=1)
              if rng.random() < density else ZERO for _ in range(n)]
             for _ in range(n)]
    a, b, dependent = rng.sample(range(n), 3)
    weight = random_polynomial(rng, COORDS, max_terms=2, max_factors=1, max_exp=1)
    block[dependent] = [block[a][c] + weight * block[b][c] for c in range(n)]
    rhs = [Expression.var(rng.choice(COORDS).momentum())
           + random_polynomial(rng, COORDS, max_terms=2) for _ in range(n)]
    return [row + [rhs[i]] for i, row in enumerate(block)]


def assert_same_echelon(matrix, column_order=None):
    sparse = eliminate(matrix, column_order)
    dense = dense_eliminate(matrix, column_order)
    assert sparse.pivots == dense.pivots
    assert sparse.row_order == dense.row_order
    assert sparse.rows == dense.rows
    return sparse


@pytest.mark.parametrize("seed", range(12))
def test_sparse_matches_dense_on_seeded_systems(seed):
    rng = random.Random(4400 + seed)
    # at 5 rows the dense reference can spend minutes in the polynomial GCD
    n = rng.randint(3, 4)
    matrix = sparse_system(rng, n, density=rng.choice([0.3, 0.5]))
    order = list(range(n))
    rng.shuffle(order)
    assert_same_echelon(matrix, order)
    assert_same_echelon(matrix)


def test_row_swap_zero_entry_and_nonunit_ratio():
    ex, ey, ez = (Expression.var(v) for v in COORDS)
    p = [Expression.var(v.momentum()) for v in COORDS]
    # column 0 has its pivot x in row 1 (a swap); rows 0 and 2 have a
    # zero entry there and are scaled by x; row 2 has a zero entry in
    # column 1 too and is scaled by piv / prev_pivot = x*y / x = y
    matrix = [
        [ZERO, ey, ZERO, p[0] + ez],
        [ex, ZERO, ez, p[1]],
        [ZERO, ZERO, 1 + ey ** 2, p[2] - ex],
        [ex * ey, ez, ZERO, p[0] * ey],
    ]
    ech = assert_same_echelon(matrix, [0, 1, 2])
    assert ech.row_order == [1, 0, 2, 3]
    assert ech.rank == 3
    assert ech.rows[2][2] == ex * ey * (1 + ey ** 2)


def test_unit_pivots_leave_zero_entry_rows_alone():
    one = Expression.const(1)
    px = Expression.var(X.momentum())
    matrix = [
        [one, ZERO, ZERO, px],
        [ZERO, one, ZERO, 3 * px],
        [ZERO, ZERO, one, Expression.var(X)],
        [one, one, ZERO, ZERO],
    ]
    ech = assert_same_echelon(matrix, [0, 1, 2])
    assert ech.rows[2] == matrix[2]
    assert ech.rows[3] == [ZERO, ZERO, ZERO, -4 * px]


def test_rational_entries():
    rng = random.Random(77)
    ex = Expression.var(X)
    matrix = sparse_system(rng, 4, density=0.6)
    matrix = [[cell / (1 + ex ** 2) if i % 2 else cell for i, cell in enumerate(row)]
              for row in matrix]
    assert_same_echelon(matrix)


# --- sampled rank --------------------------------------------------------------

def test_constant_matrix_draws_nothing():
    rng = random.Random(11)
    state = rng.getstate()
    one, two = Expression.const(1), Expression.const(2)
    assert sampled_rank([[one, two], [two, 2 * two]], Options(), rng) == 1
    assert rng.getstate() == state


def test_full_rank_stops_after_one_point():
    # rank 2 at every point, so one draw for the one free variable suffices
    rng, twin = random.Random(12), random.Random(12)
    one = Expression.const(1)
    matrix = [[one, Expression.var(X)], [ZERO, one]]
    assert sampled_rank(matrix, Options(), rng) == 2
    random_rational(twin)
    assert rng.getstate() == twin.getstate()


def test_singular_hyperplane_still_gives_generic_rank():
    root = random_rational(random.Random(13))  # the first point sits on x = root
    matrix = [[Expression.var(X) - root, ZERO], [ZERO, Expression.const(1)]]
    assert evaluate_rows(matrix, {X: root}) == [[0, 0], [0, 1]]
    assert sampled_rank(matrix, Options(), random.Random(13)) == 2


def test_pole_at_every_point_is_degenerate():
    root = random_rational(random.Random(14))
    matrix = [[1 / (Expression.var(X) - root)]]
    with pytest.raises(SamplingDegenerate):
        sampled_rank(matrix, Options(sample_count=1), random.Random(14))
    assert sampled_rank(matrix, Options(sample_count=2), random.Random(14)) == 1


def test_empty_matrix_has_rank_zero():
    assert sampled_rank([], Options(), random.Random(15)) == 0
    assert sampled_rank(jacobian([], [X, Y]), Options(), random.Random(15)) == 0


@pytest.mark.parametrize("seed", range(6))
def test_jacobian_matches_diff(seed):
    rng = random.Random(4500 + seed)
    exprs = [random_polynomial(rng, [X, Y]) for _ in range(3)]
    variables = [X, Y, Z, X.momentum()]  # z and p_x are never mentioned
    assert jacobian(exprs, variables) == [[e.diff(v) for v in variables] for e in exprs]


# --- sparse rational elimination ------------------------------------------------

def dense_rational_rank(matrix):
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


class DenseRowReducer:
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


def sparse_fraction_matrix(rng, rows, width):
    """Mostly-zero Fraction rows, some columns zero throughout, and some
    rows rational combinations of earlier ones (or of nothing: zero)."""
    dead = set(rng.sample(range(width), width // 4))
    out = []
    for _ in range(rows):
        if out and rng.random() < 0.3:
            a, b = rng.choice(out), rng.choice(out)
            s, t = random_rational(rng), random_rational(rng)
            out.append([s * u + t * v for u, v in zip(a, b)])
        else:
            out.append([Fraction(0) if c in dead or rng.random() < 0.7
                        else random_rational(rng) for c in range(width)])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_sparse_rational_rank_matches_dense(seed):
    rng = random.Random(4600 + seed)
    for _ in range(8):
        matrix = sparse_fraction_matrix(rng, rng.randint(1, 12), rng.randint(1, 14))
        assert rational_rank(matrix) == dense_rational_rank(matrix)


@pytest.mark.parametrize("seed", range(10))
def test_sparse_row_reducer_matches_dense(seed):
    rng = random.Random(4700 + seed)
    width = rng.randint(2, 14)
    rows = sparse_fraction_matrix(rng, rng.randint(2, 16), width)
    sparse, dense = RowReducer(width), DenseRowReducer(width)
    for row in rows:
        assert sparse.reduce(row) == dense.reduce(row)
        assert sparse.absorb(row) == dense.absorb(row)
        assert sparse.rank == len(dense.basis)
    probes = sparse_fraction_matrix(rng, 6, width)
    for row in probes:
        assert sparse.reduce(row) == dense.reduce(row)
