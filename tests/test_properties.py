"""Deterministic property suites over seeded random expressions.

All residues are required to be exactly zero; there is no tolerance
anywhere in the symbolic checks.
"""

import random

from gaugeflow import Expression, canonicalize, coordinate, poisson_bracket
from gaugeflow.errors import DivisionByZero

from test_kernel_oracle import Ref

from conftest import (
    PAIR_COORDS,
    phase_variables,
    random_phase_polynomial,
    random_point,
    random_polynomial,
)

PAIRS = tuple((q, q.momentum()) for q in PAIR_COORDS)
x = coordinate("x")
y = coordinate("y")


def test_bracket_properties_on_200_triples():
    rng = random.Random(31337)
    for _ in range(200):
        f = random_phase_polynomial(rng, max_terms=3)
        g = random_phase_polynomial(rng, max_terms=3)
        h = random_phase_polynomial(rng, max_terms=3)
        fg = poisson_bracket(f, g)
        assert (fg + poisson_bracket(g, f)).is_zero()                 # antisymmetry
        leibniz = (poisson_bracket(f, g * h)
                   - fg * h - g * poisson_bracket(f, h))
        assert leibniz.is_zero()                                      # Leibniz
        jacobi = (poisson_bracket(f, poisson_bracket(g, h))
                  + poisson_bracket(g, poisson_bracket(h, f))
                  + poisson_bracket(h, poisson_bracket(f, g)))
        assert jacobi.is_zero()                                       # Jacobi


def test_canonicalize_idempotent_on_1000_expressions():
    rng = random.Random(271828)
    pool = list(phase_variables()) + [x.jet(1), y.jet(1)]
    for i in range(1000):
        e = random_polynomial(rng, pool, max_terms=5, max_factors=3)
        if i % 3 == 0:
            den = random_polynomial(rng, [x, y], max_terms=2, max_factors=2)
            if not den.is_zero():
                e = e / den
        once = canonicalize(e)
        assert once == e
        assert canonicalize(once) == once
        once.validate()


def test_symbolic_zero_agrees_with_50_point_evaluation():
    rng = random.Random(1618)
    violations = 0
    for _ in range(120):
        a = random_phase_polynomial(rng, max_terms=3)
        b = random_phase_polynomial(rng, max_terms=3)
        built_zero = (a + b) ** 2 - a ** 2 - 2 * a * b - b ** 2
        candidates = [(built_zero, True), (a * b - b * a, True)]
        nonzero = a ** 2 + Expression.const(1)  # strictly positive at rationals
        candidates.append((nonzero, False))
        for e, expect_zero in candidates:
            assert e.is_zero() == expect_zero
            variables = e.variables() | a.variables() | b.variables()
            seen_nonzero = False
            for _ in range(50):
                pt = random_point(rng, variables)
                value = e.evaluate(pt)
                if expect_zero and value != 0:
                    violations += 1
                if not expect_zero and value != 0:
                    seen_nonzero = True
            if not expect_zero and not seen_nonzero:
                violations += 1
    assert violations == 0


def test_fraction_reduction_cancels_common_factors():
    # (a*g)/(b*g) must equal a/b exactly; exercises the polynomial gcd
    # and exact-division machinery end to end
    rng = random.Random(777)
    z = coordinate("z")
    pool = [x, y, z]
    checked = 0
    while checked < 100:
        a = random_polynomial(rng, pool, max_terms=3, max_factors=2)
        b = random_polynomial(rng, pool, max_terms=2, max_factors=2)
        g = random_polynomial(rng, pool, max_terms=2, max_factors=2)
        if b.is_zero() or g.is_zero():
            continue
        assert (a * g) / (b * g) == a / b
        assert ((a * g) / g) == a
        checked += 1


# --- the polynomial fast paths against canonicalization ---------------------------
#
# A polynomial's denominator is the shared ``_ONE_DEN``, and ``+ - * dt``,
# ``poisson_bracket`` and ``subs`` build polynomial results without
# canonicalizing.  The slow path below computes with the Fraction
# reference of ``test_kernel_oracle`` and hands ``_make`` a private copy
# of every denominator, so it always takes the canonicalizing route.


def slow_add(a, b):
    return (Ref.of(a) + Ref.of(b)).expression()


def slow_neg(a):
    return (-Ref.of(a)).expression()


def slow_sub(a, b):
    return slow_add(a, slow_neg(b))


def slow_mul(a, b):
    return (Ref.of(a) * Ref.of(b)).expression()


def slow_sum(terms):
    total = Expression.const(0)
    for t in terms:
        total = slow_add(total, t)
    return total


def slow_subs(e, assignment):
    """Every monomial rebuilt factor by factor, then numerator over
    denominator."""
    def poly(p):
        terms = []
        for m, c in p.items():
            term = Expression.const(c)
            for v, k in m:
                for _ in range(k):
                    term = slow_mul(term, assignment.get(v, Expression.var(v)))
            terms.append(term)
        return slow_sum(terms)
    ref = Ref.of(e)  # its numerator's coefficients as Fractions
    return (Ref.of(poly(ref.num)) / Ref.of(poly(ref.den))).expression()


def checked(fast, reference):
    assert fast == reference
    assert fast.validate()
    assert canonicalize(fast) == fast


def fast_path_operands(rng):
    """Pairs of polynomials and rational functions, some pairs built to
    cancel to zero in a sum or difference.  Rational operands stay small:
    the gcds that canonicalize their sums grow fast with size."""
    pool = list(phase_variables())
    for i in range(120):
        terms = 4 if i % 3 == 2 else 2
        a = random_polynomial(rng, pool, max_terms=terms, max_factors=2)
        b = random_polynomial(rng, pool, max_terms=terms, max_factors=2)
        if i % 4 == 1:
            b = -a  # a + b cancels
        elif i % 4 == 2:
            b = a + random_polynomial(rng, [x], max_terms=1)  # a - b leaves one term
        den = random_polynomial(rng, [x, y], max_terms=2, max_factors=1)
        if den.is_zero():
            den = Expression.var(y)
        if i % 3 == 0:
            a = a / den
            if i % 4 == 1:
                b = -a
        elif i % 3 == 1:
            b = b / den
        yield a, b


def test_fast_paths_equal_the_canonicalizing_path():
    rng = random.Random(60221)
    kinds = set()
    for a, b in fast_path_operands(rng):
        kinds.add((a.is_polynomial(), b.is_polynomial(), (a + b).is_zero()))
        checked(a + b, slow_add(a, b))
        checked(a - b, slow_sub(a, b))
        checked(a * b, slow_mul(a, b))
        checked(poisson_bracket(a, b), slow_sum(
            [slow_mul(a.diff(q), b.diff(p)) for q, p in PAIRS]
            + [slow_neg(slow_mul(a.diff(p), b.diff(q))) for q, p in PAIRS]))
    assert (True, True, True) in kinds and (False, False, True) in kinds
    assert (True, False, False) in kinds and (False, True, False) in kinds


def test_fast_dt_equals_the_canonicalizing_path():
    rng = random.Random(60222)
    pool = [x, y, x.jet(1), y.jet(1)]
    ex, ey = Expression.var(x), Expression.var(y)
    for i in range(90):
        if i % 3:
            e = random_polynomial(rng, pool, max_terms=4, max_factors=3)
            if i % 5 == 0:
                # terms of the derivative cancel: x*y' - y*x' gives x*y'' - y*x''
                e = e + ex * Expression.var(y.jet(1)) - ey * Expression.var(x.jet(1))
        else:
            # kept small: the quotient rule's gcds grow fast with size
            e = random_polynomial(rng, pool, max_terms=2, max_factors=2)
            den = random_polynomial(rng, [x], max_terms=2, max_factors=1)
            if not den.is_zero():
                e = e / den
        reference = slow_sum(slow_mul(e.diff(v), Expression.var(v.jet(1)))
                             for v in sorted(e.variables()))
        checked(e.dt(), reference)


def test_fast_subs_with_repeated_powers_equals_the_canonicalizing_path():
    rng = random.Random(60223)
    z = coordinate("z")
    pool = [x, y, z]
    for i in range(60):
        # the same powers of x and y recur across monomials
        e = random_polynomial(rng, pool, max_terms=5, max_factors=3, max_exp=3)
        e = e + Expression.var(x) ** 2 * (Expression.var(y) ** 2 + Expression.var(z) ** 2)
        e = e + (Expression.var(x) + Expression.var(y)) * Expression.var(z)
        if i % 4 == 0:
            den = random_polynomial(rng, [x, z], max_terms=2, max_factors=1)
            if not den.is_zero():
                e = e / den
        assignment = {x: random_polynomial(rng, pool, max_terms=2, max_factors=2)}
        if i % 3 == 1:
            # a rational substitute
            den = random_polynomial(rng, [z], max_terms=2, max_factors=1)
            assignment[y] = (random_polynomial(rng, [x, z], max_terms=2) / den
                             if not den.is_zero() else Expression.var(z))
        elif i % 3 == 2:
            assignment[y] = -assignment[x]  # x + y goes to 0
        try:
            reference = slow_subs(e, assignment)
        except DivisionByZero:  # the denominator vanished identically
            continue
        checked(e.subs(assignment), reference)
