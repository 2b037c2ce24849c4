"""Exact linear algebra: sparse elimination and sampled ranks.

``linalg`` takes and returns matrices as rows ``{column: value}`` of
nonzero cells; ``rows`` converts a dense list-of-lists matrix to that
form, so the dense references below keep their own shape.
``dense_eliminate`` is the textbook loop that updates every cell of
every row; ``eliminate`` skips zero work and must give the same
``Echelon`` exactly, cell for cell.  ``dense_rational_rank`` and
``DenseRowReducer`` are the dense ``Fraction`` loops that the sparse
``rational_rank`` and ``RowReducer`` must agree with.  ``sampled_rank`` is checked for
the random draws it consumes as well as the rank it returns, and so is
the surface sampler's affine solve (``RowReducer.solve``), against the
column-pivoting loop in ``reference_solve_affine_at_point``.
"""

import random
from fractions import Fraction

import pytest

from gaugeflow import Expression, Kind, Options, coordinate
from gaugeflow.errors import DivisionByZero, SamplingDegenerate
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
from gaugeflow.reduction import _solve_affine_at_point

from conftest import X, Y, Z, random_polynomial


def rows(dense):
    """The ``{column: value}`` rows of a dense matrix: its nonzero cells."""
    return [{c: x for c, x in enumerate(row) if x != 0} for row in dense]


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


def assert_same_echelon(matrix, column_order):
    sparse = eliminate(rows(matrix), column_order)
    dense = dense_eliminate(matrix, column_order)
    assert sparse.pivots == dense.pivots
    assert sparse.row_order == dense.row_order
    assert sparse.rows == rows(dense.rows)
    return sparse


@pytest.mark.parametrize("seed", range(20))
def test_sparse_matches_dense_on_seeded_systems(seed):
    rng = random.Random(4400 + seed)
    n = rng.randint(3, 5)
    matrix = sparse_system(rng, n, density=rng.choice([0.3, 0.5]))
    order = list(range(n))
    rng.shuffle(order)
    assert_same_echelon(matrix, order)
    assert_same_echelon(matrix, range(n + 1))


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
    assert ech.rows[2] == rows(matrix)[2]
    assert ech.rows[3] == rows([[ZERO, ZERO, ZERO, -4 * px]])[0]


def indexed_system(rng, n, width):
    """Rows of a few nonzero cells, mostly small integers: about half of
    them 1, so consecutive pivots are often equal (the indexed sweep
    visits only the rows with a cell in the pivot column) and often not
    (every lower row is rescaled); rows whose first cells are empty force
    swaps, and a coordinate cell now and then keeps the cells
    polynomial."""
    constants = [1, 1, 1, 2, -1, 3]
    matrix = []
    for _ in range(n):
        row = [ZERO] * width
        for c in rng.sample(range(width), rng.randint(1, 3)):
            row[c] = (Expression.var(rng.choice(COORDS)) + rng.choice(constants)
                      if rng.random() < 0.15 else Expression.const(rng.choice(constants)))
        matrix.append(row)
    return matrix


@pytest.mark.parametrize("seed", range(10))
def test_indexed_elimination_matches_dense(seed):
    rng = random.Random(4900 + seed)
    seen = set()
    for _ in range(8):
        n = rng.randint(3, 8)
        matrix = indexed_system(rng, n, n + 1)
        order = list(range(n + 1))
        rng.shuffle(order)
        ech = assert_same_echelon(matrix, order[:n])  # one column rides along
        pivots = [ech.rows[level][col] for level, col in ech.pivots]
        seen.update("same" if a == b else "rescaled" for a, b in zip(pivots, pivots[1:]))
        if ech.row_order != list(range(n)):
            seen.add("swapped")
    assert seen == {"same", "rescaled", "swapped"}


def test_rational_entries():
    rng = random.Random(77)
    ex = Expression.var(X)
    matrix = sparse_system(rng, 4, density=0.6)
    matrix = [[cell / (1 + ex ** 2) if i % 2 else cell for i, cell in enumerate(row)]
              for row in matrix]
    assert_same_echelon(matrix, range(5))


# --- sampled rank --------------------------------------------------------------

def test_constant_matrix_draws_nothing():
    rng = random.Random(11)
    state = rng.getstate()
    one, two = Expression.const(1), Expression.const(2)
    assert sampled_rank(rows([[one, two], [two, 2 * two]]), 2, Options(), rng) == 1
    assert rng.getstate() == state


def test_full_rank_stops_after_one_point():
    # rank 2 at every point, so one draw for the one free variable suffices
    rng, twin = random.Random(12), random.Random(12)
    one = Expression.const(1)
    matrix = rows([[one, Expression.var(X)], [ZERO, one]])
    assert sampled_rank(matrix, 2, Options(), rng) == 2
    random_rational(twin)
    assert rng.getstate() == twin.getstate()


def test_singular_hyperplane_still_gives_generic_rank():
    root = random_rational(random.Random(13))  # the first point sits on x = root
    matrix = rows([[Expression.var(X) - root, ZERO], [ZERO, Expression.const(1)]])
    assert evaluate_rows(matrix, {X: root}) == rows([[0, 0], [0, 1]])
    assert sampled_rank(matrix, 2, Options(), random.Random(13)) == 2


def test_pole_at_every_point_is_degenerate():
    root = random_rational(random.Random(14))
    matrix = rows([[1 / (Expression.var(X) - root)]])
    with pytest.raises(SamplingDegenerate):
        sampled_rank(matrix, 1, Options(sample_count=1), random.Random(14))
    assert sampled_rank(matrix, 1, Options(sample_count=2), random.Random(14)) == 1


def test_empty_matrix_has_rank_zero():
    assert sampled_rank([], 0, Options(), random.Random(15)) == 0
    assert sampled_rank(jacobian([], [X, Y]), 2, Options(), random.Random(15)) == 0


@pytest.mark.parametrize("seed", range(6))
def test_jacobian_matches_diff(seed):
    rng = random.Random(4500 + seed)
    exprs = [random_polynomial(rng, [X, Y]) for _ in range(3)]
    variables = [X, Y, Z, X.momentum()]  # z and p_x are never mentioned
    # each row holds exactly the nonzero partials in the listed variables
    assert jacobian(exprs, variables) == rows([[e.diff(v) for v in variables] for e in exprs])


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
        assert rational_rank(rows(matrix)) == dense_rational_rank(matrix)


@pytest.mark.parametrize("seed", range(10))
def test_sparse_row_reducer_matches_dense(seed):
    rng = random.Random(4700 + seed)
    width = rng.randint(2, 14)
    matrix = sparse_fraction_matrix(rng, rng.randint(2, 16), width)
    sparse, dense = RowReducer(), DenseRowReducer(width)
    for row, cells in zip(matrix, rows(matrix)):
        assert [sparse.reduce(cells)] == rows([dense.reduce(row)])
        assert sparse.absorb(cells) == dense.absorb(row)
        assert sparse.rank == len(dense.basis)
    probes = sparse_fraction_matrix(rng, 6, width)
    for row, cells in zip(probes, rows(probes)):
        assert [sparse.reduce(cells)] == rows([dense.reduce(row)])


@pytest.mark.parametrize("seed", range(6))
def test_row_reducer_clears_fill_in_on_later_pivots(seed):
    # banded rows: the row with pivot k also has a cell in column k + 1,
    # another row's pivot, so clearing one pivot column fills in the
    # next; absorbing in a shuffled order reduces the rows against each
    # other on the way in.  Cells are ints where integral, as
    # evaluate_rows gives them, and Fractions in the dense reference.
    rng = random.Random(5000 + seed)
    width = rng.randint(4, 12)
    band = [[Fraction(0)] * width for _ in range(width - 1)]
    for k, row in enumerate(band):
        row[k] = random_rational(rng) or Fraction(1)
        row[k + 1] = random_rational(rng) or Fraction(-1)
    if seed % 2:
        rng.shuffle(band)
    probes = sparse_fraction_matrix(rng, 8, width)
    sparse, dense = RowReducer(), DenseRowReducer(width)
    for row in band:
        cells = evaluate_rows(rows([[Expression.const(x) for x in row]]), {})[0]
        assert sparse.absorb(cells) == dense.absorb(row)
    assert sparse.rank == len(dense.basis) == width - 1
    for row, cells in zip(probes, rows(probes)):
        assert [sparse.reduce(cells)] == rows([dense.reduce(row)])
    # the unit probe fills in every later pivot column in turn
    assert list(sparse.reduce({0: 1})) == [width - 1]


def test_evaluate_rows_gives_integral_values_as_ints():
    half = Expression.const(Fraction(1, 2))
    cells = evaluate_rows(rows([[Expression.var(X), half, 2 * half]]), {X: Fraction(6, 3)})[0]
    assert cells == {0: 2, 1: Fraction(1, 2), 2: 1}
    assert [type(v) for v in cells.values()] == [int, Fraction, int]


# --- the augmented solve ---------------------------------------------------------

# Each solve test absorbs its rows twice: once as ``rows`` builds them and
# once with every row's cells inserted in reverse column order, which a
# basis row keeps; ``solve`` must walk the cells in column order either way.
SHUFFLES = (lambda cells: cells, lambda cells: dict(reversed(cells.items())))


def absorbed(matrix, shuffle):
    system = RowReducer()
    for cells in rows(matrix):
        system.absorb(shuffle(cells))
    return system


def test_solve_inconsistent_system_draws_nothing():
    matrix = [[Fraction(1), Fraction(1), Fraction(2)],
              [Fraction(2), Fraction(2), Fraction(5)]]  # 0 = 1 after reduction
    for shuffle in SHUFFLES:
        rng = random.Random(21)
        state = rng.getstate()
        assert absorbed(matrix, shuffle).solve(2, rng) is None
        assert rng.getstate() == state


def test_solve_draws_a_free_column_when_a_pivot_row_meets_it():
    # pivots in columns 2 and 0, absorbed last pivot first; back-substitution
    # meets free column 1 and then free column 3 in the row of pivot 0
    matrix = [[Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(5)],
              [Fraction(2), Fraction(2), Fraction(3), Fraction(1), Fraction(4)]]
    for shuffle in SHUFFLES:
        system = absorbed(matrix, shuffle)
        for seed in (22, 24):  # seed 22 draws -2 twice; 24 tells the two draws apart
            rng, twin = random.Random(seed), random.Random(seed)
            a, b = random_rational(twin), random_rational(twin)
            assert system.solve(4, rng) == [(4 - 2 * a - 3 * 5 - b) / 2, a, 5, b]
            assert rng.getstate() == twin.getstate()
    assert list(system.basis[1][1]) == [4, 3, 1, 0]  # the reversed row as stored


def test_solve_draws_unmet_columns_last_in_column_order():
    # column 2 is met by the pivot row of column 1; columns 0 and 3 never are
    matrix = [[Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(3)]]
    for shuffle in SHUFFLES:
        rng, twin = random.Random(23), random.Random(23)
        met, first, last = (random_rational(twin) for _ in range(3))
        assert absorbed(matrix, shuffle).solve(4, rng) == [first, 3 - met, met, last]
        assert rng.getstate() == twin.getstate()


def reference_solve_affine_at_point(affine, base_point, rng):
    """Column-pivoting elimination and back-substitution, the reference
    that ``_solve_affine_at_point`` must match point for point and draw
    for draw; ``affine`` holds (constraint, its sorted momenta) pairs."""
    unknowns = sorted({v for g, g_moms in affine for v in g_moms})
    cols = {v: i for i, v in enumerate(unknowns)}
    width = len(unknowns)
    rows = []
    for g, g_moms in affine:
        row = [Fraction(0)] * (width + 1)
        rest = g
        for v in g_moms:
            coeff = g.diff(v)
            try:
                row[cols[v]] = coeff.evaluate(base_point)
            except DivisionByZero:
                return None
            rest = rest - coeff * Expression.var(v)
        try:
            row[width] = -rest.evaluate(base_point)
        except DivisionByZero:
            return None
        rows.append(row)
    # forward elimination with column pivoting
    pivots = []
    level = 0
    for col in range(width):
        pr = next((r for r in range(level, len(rows)) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[level], rows[pr] = rows[pr], rows[level]
        for r in range(level + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[level][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[level])]
        pivots.append((level, col))
        level += 1
    for r in range(level, len(rows)):
        if rows[r][width] != 0:
            return None  # inconsistent at this point
    point = dict(base_point)
    solution = {}
    for v in unknowns:
        solution[v] = None
    for lvl, col in reversed(pivots):
        row = rows[lvl]
        acc = row[width]
        for c in range(col + 1, width):
            if row[c]:
                if solution[unknowns[c]] is None:
                    solution[unknowns[c]] = random_rational(rng)
                acc -= row[c] * solution[unknowns[c]]
        solution[unknowns[col]] = acc / row[col]
    for v in unknowns:
        if solution[v] is None:
            solution[v] = random_rational(rng)
        point[v] = solution[v]
    return point


W = coordinate("w")
MOMENTA = [Expression.var(q.momentum()) for q in (X, Y, Z, W)]


def affine_system(rng):
    """Constraints affine in the momenta of x, y, z, w with coordinate
    coefficients, some constant and some vanishing on a coordinate
    hyperplane; a row may be a coordinate-weighted combination of two
    others, shifted by a constant so it is inconsistent, or divided by a
    coordinate polynomial that has zeros at sampled points."""
    rows = []
    for _ in range(rng.randint(1, 4)):
        g = random_polynomial(rng, COORDS, max_terms=2)
        for p in rng.sample(MOMENTA, rng.randint(1, 3)):
            coeff = (Expression.const(random_rational(rng) or 1) if rng.random() < 0.4
                     else random_polynomial(rng, COORDS, max_terms=2, max_exp=1))
            g = g + coeff * p
        rows.append(g)
    if len(rows) >= 2 and rng.random() < 0.6:
        a, b = rng.sample(rows, 2)
        weight = random_polynomial(rng, COORDS, max_terms=1, max_factors=1, max_exp=1)
        shift = rng.choice([0, 0, 1])
        rows.insert(rng.randrange(len(rows) + 1), weight * a + b + shift)
    if rng.random() < 0.5:
        i = rng.randrange(len(rows))
        ex, ey = Expression.var(X), Expression.var(Y)
        rows[i] = rows[i] / rng.choice([ex, ex - ey, ey + 1])
    return [g for g in rows if g.degree_in_kind(Kind.MOMENTUM) == 1]


@pytest.mark.parametrize("seed", range(8))
def test_affine_solve_matches_reference(seed):
    rng = random.Random(4800 + seed)
    outcomes = set()
    for _ in range(10):
        affine = affine_system(rng)
        unknowns = sorted({v for g in affine for v in g.variables()
                           if v.kind is Kind.MOMENTUM})
        pairs = [(g, sorted(v for v in g.variables() if v.kind is Kind.MOMENTUM))
                 for g in affine]
        coefficients = jacobian(affine, unknowns)
        for _ in range(20):
            # a coordinate at 0 often zeroes a coefficient, leaving a column unmet
            base = {q: random_rational(rng) if rng.random() < 0.7 else Fraction(0)
                    for q in COORDS}
            draws = rng.randrange(1 << 30)
            ours, theirs = random.Random(draws), random.Random(draws)
            got = _solve_affine_at_point(affine, coefficients, unknowns, base, ours)
            assert got == reference_solve_affine_at_point(pairs, base, theirs)
            assert ours.random() == theirs.random()
            outcomes.add(got is None)
    assert outcomes == {True, False}
