import itertools
import random
from fractions import Fraction

import pytest

from conftest import lpoly
from floergen import linalg
from floergen.errors import ResourceBudgetError, UsageError
from floergen.grobner import (
    Budget,
    algebra_morphism,
    buchberger,
    degrevlex,
    laurent_quotient,
    normal_form_poly,
    polynomial_quotient,
)
from floergen.laurent import LaurentRing
from floergen.scalar import QQ, PrimeField


def test_buchberger_trivial_examples():
    # <x^2 - 1, x - 1> -> {x - 1}
    gens = [{(2,): Fraction(1), (0,): Fraction(-1)},
            {(1,): Fraction(1), (0,): Fraction(-1)}]
    gb = buchberger(QQ, gens)
    assert gb == [{(1,): Fraction(1), (0,): Fraction(-1)}]

    # <xy - 1, x^2> -> {1}
    gens = [{(1, 1): Fraction(1), (0, 0): Fraction(-1)}, {(2, 0): Fraction(1)}]
    gb = buchberger(QQ, gens)
    assert gb == [{(0, 0): Fraction(1)}]

    # principal ideal unchanged
    gens = [{(3,): Fraction(1), (0,): Fraction(-1)}]
    assert buchberger(QQ, gens) == gens


def test_buchberger_reduced_basis_is_autoreduced():
    F5 = PrimeField(5)
    gens = [{(2, 0): 1, (0, 1): 4}, {(1, 1): 1, (1, 0): 2}, {(0, 2): 3, (0, 0): 1}]
    gb = buchberger(F5, gens)
    leads = [max(g, key=degrevlex) for g in gb]
    for i, g in enumerate(gb):
        assert g[leads[i]] == 1  # monic
        for mono in g:
            for j, lm in enumerate(leads):
                if j != i:
                    assert not all(a <= b for a, b in zip(lm, mono))


def test_budget_enforced():
    F2 = PrimeField(2)
    gens = [{(3, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): 1},
            {(1, 1, 1): 1, (2, 0, 0): 1},
            {(0, 0, 3): 1, (1, 1, 0): 1}]
    with pytest.raises(ResourceBudgetError) as info:
        buchberger(F2, gens, budget=Budget(3))
    assert isinstance(info.value.basis_size, int) and info.value.basis_size > 0


def test_laurent_quotient_dim2_example():
    R = LaurentRing(["z"], QQ)
    qa = laurent_quotient([lpoly(R, {(1,): 1, (-1,): -1})])
    assert qa.finite and qa.dim == 2
    assert qa.basis_labels() == ["1", "z"]
    zmat = qa.mult_matrices[1]
    assert zmat == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


def test_laurent_quotient_cp2_relations_dim3():
    F7 = PrimeField(7)
    R = LaurentRing(["z1", "z2"], F7)
    gens = [lpoly(R, {(1, 0): 1, (-1, -1): -1}),
            lpoly(R, {(0, 1): 1, (-1, -1): -1})]
    qa = laurent_quotient(gens)
    assert qa.dim == 3
    # brute-force oracle: solutions in (F7^x)^2 and multiplicity-free quotient
    sols = [
        (a, b)
        for a in range(1, 7)
        for b in range(1, 7)
        if all(g.evaluate([a, b]) == 0 for g in gens)
    ]
    assert len(sols) == 3 and qa.dim == len(sols)


def test_laurent_quotient_quadric_relations():
    F5 = PrimeField(5)
    R = LaurentRing(["x", "y", "z"], F5)
    W = lpoly(R, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                  (-1, -1, 0): 1, (0, -1, -1): 1})
    gens = [W.log_derivative(i) for i in range(3)]
    qa = laurent_quotient(gens)
    assert qa.dim == 3
    x, y, z = (R.variable(i) for i in range(3))
    assert all(c == 0 for c in qa.nf_coords(x - z))
    assert all(c == 0 for c in qa.nf_coords(x * x * y - R.one()))
    assert all(c == 0 for c in qa.nf_coords(x * x * x - R.constant(3)))


def test_laurent_quotient_infinite_outcome():
    R = LaurentRing(["x", "y"], QQ)
    qa = laurent_quotient([lpoly(R, {(1, 0): 1, (0, 0): -1})])  # x = 1 only
    assert not qa.finite
    with pytest.raises(UsageError):
        qa.dim


def test_normal_form_examples():
    R = LaurentRing(["z"], QQ)
    qa = laurent_quotient([lpoly(R, {(3,): 1, (0,): -1})])  # k[z]/(z^3 - 1)
    z4 = lpoly(R, {(4,): 1})
    assert qa.nf_coords(z4) == qa.nf_coords(R.variable(0))
    one = qa.nf_coords(R.one())
    assert one[qa.unit_index] == 1 and sum(1 for c in one if c != 0) == 1

    F2 = PrimeField(2)
    R2 = LaurentRing(["z"], F2)
    qa2 = laurent_quotient([lpoly(R2, {(6,): 1, (0,): 1})])  # z^6 - 1 char 2
    p = lpoly(R2, {(3,): 1, (1,): 1})
    coords = qa2.nf_coords(p)
    labels = [qa2.basis_labels()[i] for i, c in enumerate(coords) if c != 0]
    assert sorted(labels) == ["z", "z^3"]


def test_mult_matrix_soundness_random():
    rng = random.Random(41)
    F5 = PrimeField(5)
    R = LaurentRing(["x", "y"], F5)
    gens = [lpoly(R, {(2, 0): 1, (0, 0): -1}), lpoly(R, {(0, 2): 1, (0, 1): -1, (0, 0): -1})]
    qa = laurent_quotient(gens)

    def rand_poly():
        return R.from_terms(
            ((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randrange(5))
            for _ in range(rng.randint(1, 4))
        )

    for _ in range(10):
        a, b = rand_poly(), rand_poly()
        via_matrices = qa.element_product(qa.nf_coords(a), qa.nf_coords(b))
        direct = qa.nf_coords(a * b)
        assert via_matrices == direct


def test_mult_matrices_commute():
    F7 = PrimeField(7)
    R = LaurentRing(["z1", "z2"], F7)
    gens = [lpoly(R, {(1, 0): 1, (-1, -1): -1}), lpoly(R, {(0, 1): 1, (-1, -1): -1})]
    qa = laurent_quotient(gens)
    mats = list(qa.mult_matrices.values())
    for a, b in itertools.combinations(mats, 2):
        assert linalg.mat_mul(F7, a, b) == linalg.mat_mul(F7, b, a)


def test_membership_agrees_with_truncated_linear_oracle():
    rng = random.Random(101)
    for p in (2, 3):
        field = PrimeField(p)
        for _ in range(4):
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = {}
                for _ in range(rng.randint(1, 3)):
                    mono = (rng.randint(0, 2), rng.randint(0, 2))
                    if sum(mono) <= 3:
                        g[mono] = rng.randrange(1, p + 1) % p or 1
                if g:
                    gens.append(g)
            if not gens:
                continue
            gb = buchberger(field, gens)
            basis = [(g, max(g, key=degrevlex)) for g in gb]
            # oracle: span of all m*g with deg(m*g) <= 8
            monos8 = [
                (i, j) for i in range(9) for j in range(9) if i + j <= 8
            ]
            mono_index = {m: i for i, m in enumerate(monos8)}
            rows = []
            for g in gens:
                gdeg = max(sum(m) for m in g)
                for m in monos8:
                    if sum(m) + gdeg > 8:
                        continue
                    vec = [field.zero] * len(monos8)
                    for e, c in g.items():
                        shifted = (e[0] + m[0], e[1] + m[1])
                        vec[mono_index[shifted]] = c
                    rows.append(vec)
            span = linalg.transpose(rows) if rows else []
            for _ in range(6):
                trial = {}
                for _ in range(rng.randint(1, 3)):
                    mono = (rng.randint(0, 2), rng.randint(0, 2))
                    trial[mono] = rng.randrange(p)
                trial = {m: c for m, c in trial.items() if c}
                nf = normal_form_poly(field, trial, basis)
                vec = [field.zero] * len(monos8)
                for e, c in trial.items():
                    vec[mono_index[e]] = c
                oracle_member = linalg.solve(field, span, vec) is not None if rows else not trial
                assert (not nf) == oracle_member


def test_quotient_dim_invariant_under_generator_permutation_and_units():
    F5 = PrimeField(5)
    R = LaurentRing(["x", "y"], F5)
    g1 = lpoly(R, {(1, 0): 1, (-1, -1): -1})
    g2 = lpoly(R, {(0, 1): 1, (-1, -1): -1})
    base = laurent_quotient([g1, g2]).dim
    assert laurent_quotient([g2, g1]).dim == base
    unit = lpoly(R, {(-1, 2): 3})
    assert laurent_quotient([g1 * unit, g2]).dim == base
    assert laurent_quotient([g1, g2 * unit]).dim == base


def test_algebra_morphism_cp2_iso():
    F7 = PrimeField(7)
    Rz = LaurentRing(["Z"], F7)
    domain = laurent_quotient([lpoly(Rz, {(3,): 1, (0,): -1})])
    R2 = LaurentRing(["z1", "z2"], F7)
    jac = laurent_quotient([
        lpoly(R2, {(1, 0): 1, (-1, -1): -1}),
        lpoly(R2, {(0, 1): 1, (-1, -1): -1}),
    ])
    mor = algebra_morphism(domain, jac, [R2.variable(0)])
    assert mor.well_defined and mor.kernel_dim == 0 and mor.surjective


def test_algebra_morphism_identity():
    F7 = PrimeField(7)
    R = LaurentRing(["z1", "z2"], F7)
    qa = laurent_quotient([
        lpoly(R, {(1, 0): 1, (-1, -1): -1}),
        lpoly(R, {(0, 1): 1, (-1, -1): -1}),
    ])
    mor = algebra_morphism(qa, qa, [R.variable(0), R.variable(1)])
    assert mor.well_defined and mor.kernel_dim == 0 and mor.surjective


def test_algebra_morphism_relation_violation():
    Rz = LaurentRing(["Z"], QQ)
    domain = laurent_quotient([lpoly(Rz, {(2,): 1, (0,): -1})])
    Rw = LaurentRing(["w"], QQ)
    point = laurent_quotient([lpoly(Rw, {(1,): 1, (0,): -1})])  # k
    mor = algebra_morphism(domain, point, [Rw.zero()])
    assert not mor.well_defined
    assert mor.failing_relation == 0


def _zero_divisor_image_case(extra_relations):
    # domain k[Z1^+-1, Z2^+-1]/(Z1 - 1, Z2^2 - 2 Z2, ...), codomain
    # k[w^+-1]/(w^2 - 1); Z2 -> w + 1 satisfies Z2^2 = 2 Z2 but is a zero
    # divisor, (w + 1)(w - 1) = 0, so it has no inverse
    R = LaurentRing(["Z1", "Z2"], QQ)
    rels = [lpoly(R, {(1, 0): 1, (0, 0): -1}), lpoly(R, {(0, 2): 1, (0, 1): -2})]
    domain = laurent_quotient(rels + [lpoly(R, t) for t in extra_relations])
    Rw = LaurentRing(["w"], QQ)
    codomain = laurent_quotient([lpoly(Rw, {(2,): 1, (0,): -1})])
    assert domain.dim == 1 and codomain.dim == 2
    return algebra_morphism(domain, codomain, [Rw.one(), lpoly(Rw, {(1,): 1, (0,): 1})])


def test_algebra_morphism_image_not_invertible():
    mor = _zero_divisor_image_case([])
    assert not mor.well_defined
    assert mor.failing_relation is None
    assert mor.reason == "image of generator 1 is not invertible"
    assert mor.matrix is None


def test_algebra_morphism_negative_exponent_on_non_unit_image():
    # relation 2, 2 Z1 Z2^-1 - 1, holds in the domain but needs the inverse
    # of Z2's image, so it is the one reported
    mor = _zero_divisor_image_case([{(1, -1): 2, (0, 0): -1}])
    assert not mor.well_defined
    assert mor.failing_relation == 2
    assert mor.reason == "image of generator 1 is not invertible"


def test_polynomial_quotient_graded_dims():
    qa = polynomial_quotient(QQ, ["H"], [{(3,): Fraction(1)}])
    assert qa.graded_dims() == [1, 1, 1]
