import random
from fractions import Fraction

import pytest

from floergen.errors import DomainError, UsageError
from floergen.scalar import (
    QQ,
    PrimeField,
    UniPoly,
    is_prime,
    parse_field,
    rational_roots,
    univariate_factor,
)


def poly(field, ints):
    return UniPoly.from_ints(field, ints)


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("F7").p == 7
    assert parse_field("F2").char == 2
    with pytest.raises(UsageError):
        parse_field("F9")
    with pytest.raises(UsageError):
        parse_field("GF(7)")


def test_is_prime_deterministic():
    assert is_prime(2) and is_prime(31) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(341) and not is_prime(561)


def test_factor_x2_plus_1_over_F2():
    F2 = PrimeField(2)
    factors = univariate_factor(poly(F2, [1, 0, 1]))
    assert factors == [(poly(F2, [1, 1]), 2)]


def test_factor_x3_minus_6_over_F7():
    F7 = PrimeField(7)
    factors = univariate_factor(poly(F7, [-6, 0, 0, 1]))
    # roots 3, 5, 6: factors t-3 = t+4, t-5 = t+2, t-6 = t+1
    assert [(g.coeffs, m) for g, m in factors] == [
        ([1, 1], 1), ([2, 1], 1), ([4, 1], 1),
    ]
    for g, _ in factors:
        root = F7.neg(g.coeffs[0])
        assert pow(root, 3, 7) == 6


def test_factor_x3_minus_3_over_F5():
    F5 = PrimeField(5)
    factors = univariate_factor(poly(F5, [-3, 0, 0, 1]))
    assert [(g.coeffs, m) for g, m in factors] == [([3, 1], 1), ([4, 2, 1], 1)]
    # the quadratic cofactor x^2 + 2x + 4 has no roots: irreducible
    quad = factors[1][0]
    assert all(quad.evaluate(a) != 0 for a in range(5))


def test_factor_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        univariate_factor(UniPoly(PrimeField(3), []))


def test_factor_requires_prime_field():
    with pytest.raises(UsageError):
        univariate_factor(poly(QQ, [1, 1]))


def test_factor_multiplicities_and_pth_powers():
    F3 = PrimeField(3)
    # (x+1)^3 * (x^2+1): derivative-vanishing branch exercises the p-th root
    f = poly(F3, [1, 1]) * poly(F3, [1, 1]) * poly(F3, [1, 1]) * poly(F3, [1, 0, 1])
    factors = univariate_factor(f)
    assert ([1, 1], 3) in [(g.coeffs, m) for g, m in factors]
    assert ([1, 0, 1], 1) in [(g.coeffs, m) for g, m in factors]


def test_factor_refactor_roundtrip_random():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 11, 13):
        field = PrimeField(p)
        for _ in range(12):
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = UniPoly(field, coeffs)
            product = UniPoly(field, [f.leading()])
            for g, m in univariate_factor(f):
                assert g.leading() == 1
                for _ in range(m):
                    product = product * g
            assert product == f


def test_factor_irreducibility_by_root_scan():
    # every degree <= 3 factor of squarefree inputs has no roots left over
    rng = random.Random(3)
    for p in (3, 5, 7):
        field = PrimeField(p)
        for _ in range(8):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 6))] + [1]
            f = UniPoly(field, coeffs)
            for g, _ in univariate_factor(f):
                if 2 <= g.degree <= 3:
                    assert all(g.evaluate(a) != 0 for a in range(p))


def test_factor_deterministic_across_seeds_content():
    F7 = PrimeField(7)
    f = poly(F7, [3, 0, 1, 0, 0, 2, 1])
    assert univariate_factor(f, seed=2) == univariate_factor(f, seed=99)


def test_rational_roots_examples():
    assert rational_roots(poly(QQ, [-4, 0, 1])) == [(Fraction(2), 1), (Fraction(-2), 1)]
    assert rational_roots(poly(QQ, [-27, 0, 0, 1])) == [(Fraction(3), 1)]
    assert rational_roots(poly(QQ, [1, 0, 1])) == []


def test_rational_roots_zero_root_and_fractions():
    # t^2 (2t - 1)
    f = poly(QQ, [0, 0, -1, 2])
    assert rational_roots(f) == [(Fraction(1, 2), 1), (Fraction(0), 2)]
    with pytest.raises(DomainError):
        rational_roots(UniPoly(QQ, []))


def test_rational_roots_multiset_union_under_products():
    rng = random.Random(5)
    for _ in range(10):
        f = UniPoly(QQ, [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
                    + [Fraction(rng.randint(1, 3))])
        g = UniPoly(QQ, [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
                    + [Fraction(rng.randint(1, 3))])
        combined = {}
        for r, m in rational_roots(f):
            combined[r] = combined.get(r, 0) + m
        for r, m in rational_roots(g):
            combined[r] = combined.get(r, 0) + m
        product = {r: m for r, m in rational_roots(f * g)}
        assert product == combined


def test_factor_matches_sympy_factor_list():
    """The multiset of monic irreducible factors with their multiplicities
    equals sympy's factorization over GF(p)."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t = sympy.Symbol("t")

    @st.composite
    def polynomials(draw):
        # a product of small powers, so repeated and p-th power factors occur
        p = draw(st.sampled_from([2, 3, 5, 7]))
        field = PrimeField(p)
        f = UniPoly(field, [draw(st.integers(1, p - 1))])
        for _ in range(draw(st.integers(1, 3))):
            g = UniPoly(field, draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
                        + [1])
            for _ in range(draw(st.integers(1, 3))):
                f = f * g
        return f, draw(st.integers(0, 3))

    @hypothesis.settings(max_examples=100)
    @hypothesis.given(polynomials())
    def check(case):
        f, seed = case
        p = f.field.char
        ours = sorted((tuple(g.coeffs), m) for g, m in univariate_factor(f, seed=seed))
        _, theirs = sympy.Poly(list(reversed(f.coeffs)), t, modulus=p).factor_list()
        expected = sorted(
            (tuple(int(c) % p for c in reversed(g.monic().all_coeffs())), m)
            for g, m in theirs
        )
        assert ours == expected

    check()
