import random
from fractions import Fraction

import pytest

from conftest import lpoly
from floergen.errors import DomainError, UsageError
from floergen.laurent import LaurentRing, laurent_from_json
from floergen.scalar import QQ, PrimeField


def test_arith_examples():
    R = LaurentRing(["z"], QQ)
    z = R.variable(0)
    zinv = R.monomial((-1,))
    assert (z + zinv) * z == lpoly(R, {(2,): 1, (0,): 1})

    F2 = PrimeField(2)
    R2 = LaurentRing(["x", "y"], F2)
    s = R2.variable(0) + R2.variable(1)
    assert s * s == lpoly(R2, {(2, 0): 1, (0, 2): 1})  # Frobenius in char 2

    R3 = LaurentRing(["z1", "z2"], QQ)
    w = lpoly(R3, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
    assert w ** 0 == R3.one()


def test_constant_and_monomial_reduce_their_coefficient():
    # over F7 the constant 7 is zero and 8 is one; both used to be kept as
    # written, a zero term and a second form of x
    R = LaurentRing(["x"], PrimeField(7))
    assert R.constant(7) == R.zero() and R.constant(7).is_zero()
    assert R.monomial((1,), 8) == R.variable(0)
    assert R.constant(-1).terms == {(0,): 6}


def test_ring_mismatch_rejected():
    Ra = LaurentRing(["z"], QQ)
    Rb = LaurentRing(["w"], QQ)
    with pytest.raises(UsageError):
        Ra.variable(0) + Rb.variable(0)
    with pytest.raises(UsageError):
        Ra.variable(0) * LaurentRing(["z"], PrimeField(5)).variable(0)


def test_log_derivative_examples():
    R = LaurentRing(["z"], QQ)
    W = lpoly(R, {(1,): 1, (-1,): 1})
    assert W.log_derivative(0) == lpoly(R, {(1,): 1, (-1,): -1})

    R3 = LaurentRing(["x", "y", "z"], QQ)
    W = lpoly(R3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                   (-1, -1, 0): 1, (0, -1, -1): 1})
    assert W.log_derivative(0) == lpoly(R3, {(1, 0, 0): 1, (-1, -1, 0): -1})

    const = R.constant(Fraction(5))
    assert const.log_derivative(0).is_zero()


def test_log_derivative_characteristic_aware():
    F3 = PrimeField(3)
    R = LaurentRing(["z"], F3)
    assert lpoly(R, {(3,): 1}).log_derivative(0).is_zero()


def test_evaluate_examples():
    R = LaurentRing(["z"], QQ)
    W = lpoly(R, {(1,): 1, (-1,): 1})
    assert W.evaluate([Fraction(1)]) == 2

    F7 = PrimeField(7)
    R2 = LaurentRing(["z1", "z2"], F7)
    p = lpoly(R2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
    assert p.evaluate([2, 2]) == 6

    with pytest.raises(DomainError):
        W.evaluate([Fraction(0)])


def test_ring_axioms_random():
    rng = random.Random(17)
    F5 = PrimeField(5)
    R = LaurentRing(["x", "y"], F5)

    def rand_poly():
        return R.from_terms(
            ((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randrange(5))
            for _ in range(rng.randint(0, 4))
        )

    for _ in range(15):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_log_derivative_is_derivation():
    rng = random.Random(23)
    F7 = PrimeField(7)
    R = LaurentRing(["x", "y"], F7)

    def rand_poly():
        return R.from_terms(
            ((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randrange(7))
            for _ in range(rng.randint(1, 4))
        )

    for _ in range(12):
        f, g = rand_poly(), rand_poly()
        for i in range(2):
            lhs = (f * g).log_derivative(i)
            rhs = f.log_derivative(i) * g + f * g.log_derivative(i)
            assert lhs == rhs


def test_evaluate_is_ring_hom():
    rng = random.Random(29)
    F7 = PrimeField(7)
    R = LaurentRing(["x", "y"], F7)

    def rand_poly():
        return R.from_terms(
            ((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randrange(7))
            for _ in range(rng.randint(1, 4))
        )

    for _ in range(12):
        f, g = rand_poly(), rand_poly()
        pt = [rng.randrange(1, 7), rng.randrange(1, 7)]
        assert (f * g).evaluate(pt) == F7.mul(f.evaluate(pt), g.evaluate(pt))
        assert (f + g).evaluate(pt) == F7.add(f.evaluate(pt), g.evaluate(pt))


def test_json_roundtrip():
    F7 = PrimeField(7)
    R = LaurentRing(["x", "y"], F7)
    p = lpoly(R, {(1, -2): 3, (0, 0): 5})
    data = p.to_json()
    assert data["field"] == "F7"
    assert laurent_from_json(data) == p

    q = lpoly(LaurentRing(["z"], QQ), {(2,): 1})
    q = q.scalar_mul(Fraction(1, 3))
    assert laurent_from_json(q.to_json()) == q


def test_json_malformed():
    with pytest.raises(UsageError):
        laurent_from_json({"variables": ["x"], "terms": [{}]})
    # a field spec that is not a string used to raise AttributeError
    with pytest.raises(UsageError, match="field spec must be a string"):
        laurent_from_json({"variables": ["x"], "field": 7, "terms": []})


@pytest.mark.parametrize("exp", [1.5, 2.0, "2", True])
def test_json_exponents_must_be_integers(exp):
    data = {"variables": ["x"], "field": "Q",
            "terms": [{"coeff": "1", "exps": [exp]}, {"coeff": "1", "exps": [-1]}]}
    with pytest.raises(UsageError, match="exponent must be an integer"):
        laurent_from_json(data)


def test_evaluate_with_negative_exponents_matches_fraction_reference():
    """evaluate equals sum c * prod x_i^e_i computed in Fractions, over Q and
    over F_p (the Fraction's numerator times the inverse of its denominator,
    a product of units), and returns an exact value: an int in [0, p) over
    F_p and an int or a Fraction over Q, never a float."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from(fields))
        p = field.char
        if p:
            coord = st.integers(1, p - 1)
            coeff = st.integers(0, p - 1)
        else:
            coord = st.builds(lambda n, d: n if d == 1 else Fraction(n, d),
                              st.integers(-5, 5).filter(bool), st.integers(1, 3))
            coeff = st.integers(-9, 9)
        exps = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        terms = draw(st.lists(st.tuples(exps, coeff), max_size=5))
        return field, terms, [draw(coord), draw(coord)]

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(cases())
    def check(case):
        field, terms, point = case
        R = LaurentRing(["x", "y"], field)
        f = R.from_terms(terms)
        want = sum((c * Fraction(point[0]) ** a * Fraction(point[1]) ** b
                    for (a, b), c in f.terms.items()), Fraction(0))
        got = f.evaluate(point)
        p = field.char
        if p:
            assert type(got) is int and 0 <= got < p
            assert got == want.numerator * pow(want.denominator, -1, p) % p
        else:
            assert type(got) in (int, Fraction)
            assert got == want

    check()
