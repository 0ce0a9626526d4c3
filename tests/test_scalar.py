import math
import random
from fractions import Fraction

import pytest

from floergen import linalg
from floergen.errors import DomainError, UsageError
from floergen.scalar import (
    QQ,
    canonical,
    PrimeField,
    UniPoly,
    add_scaled,
    clear_denominators,
    is_prime,
    parse_field,
    rational_roots,
    square_and_multiply,
    univariate_factor,
)


def poly(field, ints):
    return UniPoly(field, ints)


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("F7").p == 7
    assert parse_field("F2").char == 2
    with pytest.raises(UsageError):
        parse_field("F9")
    with pytest.raises(UsageError):
        parse_field("GF(7)")
    with pytest.raises(UsageError):  # superscript digits, which int() rejects
        parse_field("F²")
    with pytest.raises(UsageError):  # an Arabic-Indic seven, which int() reads
        parse_field("F\u0667")
    with pytest.raises(UsageError):  # more digits than int() converts
        parse_field("F" + "1" * 5000)
    with pytest.raises(UsageError, match="2501 is not prime"):  # 41 * 61
        parse_field("F2501")


def test_is_prime_deterministic():
    assert is_prime(2) and is_prime(31) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(341) and not is_prime(561)
    # no prime factor up to 37, so only the Miller-Rabin rounds reject them:
    # 41 * 43, 41 * 61, and a strong pseudoprime to bases 2, 3, 5 and 7
    assert not any(map(is_prime, (1763, 2501, 3215031751)))


def test_is_prime_matches_sympy_past_the_trial_divisors():
    """Every n below 20,000 and 2,000 seeded odd 64-bit integers agree with
    sympy.isprime, including composites with no prime factor up to 37, which
    only the Miller-Rabin rounds can reject."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(64)
    odd = [rng.getrandbits(64) | 1 for _ in range(2000)]
    for n in list(range(20000)) + odd:
        assert is_prime(n) == sympy.isprime(n), n


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


def test_rational_roots_beyond_trial_division_of_the_constant_term():
    """(t - 6)^30 (t + 4)^20 (t^2 + 1): the constant term 6^30 4^20 is about
    2.4e35, whose divisors trial division up to its square root cannot list;
    the squarefree part (t - 6)(t + 4)(t^2 + 1) has constant term -24."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    f = poly(QQ, [1, 0, 1])
    for root, mult in ((6, 30), (-4, 20)):
        for _ in range(mult):
            f = f * poly(QQ, [-root, 1])
    assert abs(f.coeffs[0]) == 6**30 * 4**20
    got = rational_roots(f)
    assert got == [(6, 30), (-4, 20)]
    assert all(type(r) is int for r, _ in got)
    theirs = sympy.roots(sympy.Poly(list(reversed(f.coeffs)), t), filter="Q")
    assert dict(got) == {int(r): m for r, m in theirs.items()}


def is_canonical_rational(x):
    return type(x) is int or type(x) is Fraction and x.denominator > 1


def test_q_constructors_and_division_are_canonical():
    """from_str, inv and div return the canonical rational (an int when
    integral) equal to the Fraction reference, whether their input is an
    int or a Fraction."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.builds(lambda n, d, as_int: n // d if as_int and n % d == 0
                          else Fraction(n, d),
                          st.integers(-30, 30), st.integers(1, 6), st.booleans())

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(st.integers(-30, 30), st.integers(0, 6), rationals, rationals)
    def check(n, d, a, b):
        text = f"{n}/{d}" if d else str(n)
        got = QQ.from_str(text)
        assert got == Fraction(text) and is_canonical_rational(got)
        for x in (a, b):
            if x:
                got = QQ.inv(x)
                assert got == 1 / Fraction(x) and is_canonical_rational(got)
        if b:
            got = QQ.div(a, b)
            assert got == Fraction(a) / b and is_canonical_rational(got)
        assert is_canonical_rational(QQ.from_int(n))

    check()


def test_rational_roots_of_planted_roots_match_sympy():
    """Integer polynomials c * prod (d t - n)^m * (a cofactor): the roots and
    multiplicities equal sympy's rational roots, each root is canonical (an
    int when integral, 0 for the zero root), and every planted root is
    found."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t = sympy.Symbol("t")
    planted = st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3))

    @hypothesis.settings(max_examples=100)
    @hypothesis.given(st.lists(planted, min_size=0, max_size=3),
                      st.lists(st.integers(-5, 5), min_size=0, max_size=3),
                      st.integers(1, 4), st.integers(-3, 3).filter(bool))
    def check(roots, cofactor, top, scale):
        f = poly(QQ, [scale])
        for n, d, m in roots:
            for _ in range(m):
                f = f * poly(QQ, [-n, d])
        f = f * poly(QQ, cofactor + [top])
        got = rational_roots(f)
        assert all(is_canonical_rational(r) for r, _ in got)
        assert [r for r, _ in got] == sorted({r for r, _ in got}, reverse=True)
        theirs = sympy.roots(sympy.Poly(list(reversed(f.coeffs)), t), filter="Q")
        assert dict(got) == {Fraction(int(r.p), int(r.q)): m for r, m in theirs.items()}
        assert {Fraction(n, d) for n, d, _ in roots} <= dict(got).keys()

    check()


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


def test_unipoly_arithmetic_matches_sympy():
    """+, -, *, divmod, gcd, derivative, evaluate and pow_mod agree with
    sympy over GF(2), GF(3), GF(7) and QQ, and every coefficient is
    canonical: an int in [0, p) over F_p, an int or a Fraction over Q, with
    a nonzero leading one.  Inputs over F_p are arbitrary ints, so the
    constructor's reduction is under test as well."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t = sympy.Symbol("t")
    fields = [PrimeField(2), PrimeField(3), PrimeField(7), QQ]

    def to_sympy(field, raw):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(raw)]
        if field.char:
            return sympy.Poly(coeffs or [0], t, modulus=field.char)
        return sympy.Poly(coeffs or [0], t, domain=sympy.QQ)

    def from_sympy(field, value):
        p = field.char
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(value.all_coeffs())]
        return [int(c) % p for c in coeffs] if p else coeffs

    def scalar(field, value):
        value = sympy.Rational(value)
        p = field.char
        return int(value) % p if p else Fraction(int(value.p), int(value.q))

    def check_poly(f, expected):
        p = f.field.char
        if p:
            assert all(type(c) is int and 0 <= c < p for c in f.coeffs), f.coeffs
        else:
            assert all(type(c) in (int, Fraction) for c in f.coeffs), f.coeffs
        assert not f.coeffs or f.coeffs[-1]
        want = list(expected)
        while want and not want[-1]:
            want.pop()
        assert f.coeffs == want

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from(fields))
        if field.char:
            coeff = st.integers(-20, 20)
        else:
            coeff = st.builds(lambda n, d: n if d == 1 else Fraction(n, d),
                              st.integers(-9, 9), st.integers(1, 4))
        raws = [draw(st.lists(coeff, max_size=6)) for _ in range(3)]
        return field, raws, draw(coeff), draw(st.integers(0, 12))

    @hypothesis.settings(max_examples=150)
    @hypothesis.given(cases())
    def check(case):
        field, raws, x, e = case
        f, g, m = (UniPoly(field, raw) for raw in raws)
        sf, sg, sm = (to_sympy(field, raw) for raw in raws)
        check_poly(f, from_sympy(field, sf))
        check_poly(f + g, from_sympy(field, sf + sg))
        check_poly(f - g, from_sympy(field, sf - sg))
        check_poly(-f, from_sympy(field, -sf))
        check_poly(f * g, from_sympy(field, sf * sg))
        check_poly(f.derivative(), from_sympy(field, sf.diff(t)))
        check_poly(f.gcd(g), from_sympy(field, sf.gcd(sg).monic()))
        value = f.evaluate(x)
        assert value == scalar(field, sf.eval(sympy.Rational(x.numerator, x.denominator)))
        assert type(value) in (int, Fraction) and (not field.char or 0 <= value < field.char)
        if not g.is_zero():
            q, r = f.divmod(g)
            sq, sr = sf.div(sg)
            check_poly(q, from_sympy(field, sq))
            check_poly(r, from_sympy(field, sr))
        if not m.is_zero():
            check_poly(f.pow_mod(e, m), from_sympy(field, (sf ** e).rem(sm)))

    check()


def test_square_and_multiply_matches_modular_pow():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(st.integers(-10**6, 10**6), st.integers(0, 2**20), st.integers(2, 10**9))
    def check(b, e, m):
        assert square_and_multiply(1, b, e, lambda x, y: x * y % m) == pow(b, e, m)

    check()


def test_square_and_multiply_matches_repeated_matrix_products():
    """2x2 integer matrices under `linalg.mat_mul`, a non-commutative
    product: base^e equals e products by base, and e = 0 gives `one` back."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrices = st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                        min_size=2, max_size=2)

    def mul(a, b):
        return linalg.mat_mul(QQ, a, b)

    @hypothesis.settings(max_examples=100)
    @hypothesis.given(matrices, st.integers(0, 20))
    def check(base, e):
        one = linalg.identity(QQ, 2)
        expected = one
        for _ in range(e):
            expected = mul(expected, base)
        assert square_and_multiply(one, base, e, mul) == expected

    check()
    one = linalg.identity(QQ, 2)
    assert square_and_multiply(one, [[1, 1], [0, 1]], 0, mul) is one


def test_square_and_multiply_squares_only_while_bits_remain():
    """One product per set bit of e and one squaring per bit below the top:
    e.bit_length() + popcount(e) - 1 calls of `mul` for e >= 1."""
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x * y

    for e in list(range(1, 70)) + [2**20, 2**20 - 1]:
        calls.clear()
        assert square_and_multiply(1, 3, e, mul) == 3**e
        assert len(calls) == e.bit_length() + bin(e).count("1") - 1
    calls.clear()
    one = object()
    assert square_and_multiply(one, 3, 0, mul) is one and calls == []


def test_clear_denominators():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30)),
                      max_size=8)

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(values)
    def check(values):
        ints, d = clear_denominators(values)
        assert d == math.lcm(*[Fraction(x).denominator for x in values])
        assert all(type(x) is int for x in ints)
        assert ints == [x * d for x in values]

    check()
    assert clear_denominators([]) == ([], 1)
