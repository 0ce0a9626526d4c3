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
