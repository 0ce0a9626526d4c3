import functools
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from conftest import (dense_columns, dense_matrix, dp6, ladder, lpoly,
                      reference_morphism_matrix, reparametrised)
from floergen import grobner, linalg, quantum
from floergen.errors import AnomalyError, DomainError, ResourceBudgetError, UsageError
from floergen.grobner import (
    Budget,
    algebra_morphism,
    buchberger,
    degrevlex,
    laurent_quotient,
    normal_form_poly,
    polynomial_quotient,
)
from floergen.laurent import LaurentRing, laurent_from_json
from floergen.quantum import c1_element, jacobian_ring, qh_presentation
from floergen.realgen import F2, frobenius_matrix
from floergen.scalar import QQ, PrimeField
from floergen.toric import (corpus, polytope_product, primitive_collections, superpotential,
                            validate)

DATA = pathlib.Path(__file__).resolve().parent / "data"


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


BUDGET_GENS = [{(3, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): 1},
               {(1, 1, 1): 1, (2, 0, 0): 1},
               {(0, 0, 3): 1, (1, 1, 0): 1}]


def test_budget_enforced():
    with pytest.raises(ResourceBudgetError) as info:
        buchberger(PrimeField(2), BUDGET_GENS, budget=Budget(3))
    assert isinstance(info.value.basis_size, int) and info.value.basis_size > 0


def record_buchberger(monkeypatch):
    """Route grobner.buchberger through a recorder; returns the list of
    (generators, budget steps on return, basis) it fills, one per call."""
    calls = []

    def recording(field, gens, budget=None):
        gb = buchberger(field, gens, budget)
        calls.append((list(gens), budget.steps, gb))
        return gb

    monkeypatch.setattr(grobner, "buchberger", recording)
    return calls


def test_pair_order_witness(monkeypatch):
    # Which S-pairs get reduced, and against which basis, depends on the
    # order pairs are taken in and on which pairs are queued at all, and
    # every reduction step ticks the budget.  These exact counts are those of
    # the selection by smallest (degrevlex(lcm), (i, j)) over the queued
    # pairs, where pairs with coprime leads are never queued, so the chain
    # criterion counts them as handled; they must not move.
    budget = Budget()
    buchberger(PrimeField(2), BUDGET_GENS, budget)
    assert budget.steps == 10

    calls = record_buchberger(monkeypatch)
    qh = qh_presentation(dp6(), PrimeField(7))
    assert qh.dim == 6
    assert [(steps, len(gb)) for _, steps, gb in calls] == [(209, 18)]


def test_laurent_quotient_dim2_example():
    R = LaurentRing(["z"], QQ)
    qa = laurent_quotient([lpoly(R, {(1,): 1, (-1,): -1})])
    assert qa.finite and qa.dim == 2
    assert qa.basis_labels() == ["1", "z"]
    zmat = qa.element_mult_matrix(qa.nf_coords(R.variable(0)))
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
    assert one[0] == 1 and sum(1 for c in one if c != 0) == 1

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


def unit_monomials(nvars):
    return [tuple(int(k == v) for k in range(nvars)) for v in range(nvars)]


def test_mult_matrices_commute():
    F7 = PrimeField(7)
    R = LaurentRing(["z1", "z2"], F7)
    gens = [lpoly(R, {(1, 0): 1, (-1, -1): -1}), lpoly(R, {(0, 1): 1, (-1, -1): -1})]
    qa = laurent_quotient(gens)
    mats = [qa.element_mult_matrix(qa.nf_coords({mono: F7.one}))
            for mono in unit_monomials(len(qa.names))]
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
            words = grobner.Words(2)
            basis = grobner.Divisors(field, words, [words.pack_poly(g) for g in gb])
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
                nf = normal_form_poly(field, words.pack_poly(trial), basis, Budget())
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
    # Z -> w sends Z^3 - 1 to w^3 - 1 = w - 1, which is not zero mod w^2 - 1
    Rz = LaurentRing(["Z"], QQ)
    domain = laurent_quotient([lpoly(Rz, {(3,): 1, (0,): -1})])
    Rw = LaurentRing(["w"], QQ)
    codomain = laurent_quotient([lpoly(Rw, {(2,): 1, (0,): -1})])
    mor = algebra_morphism(domain, codomain, [Rw.variable(0)])
    assert not mor.well_defined
    assert mor.failing_relation == 0
    assert mor.columns is None


@pytest.mark.parametrize("image", [
    lambda Rz, Rw: lpoly(Rw, {(1,): 1, (0,): 1}),
    lambda Rz, Rw: lpoly(Rw, {(1,): 2}),
    lambda Rz, Rw: Rw.zero(),
    lambda Rz, Rw: Rz.variable(0),
], ids=["binomial", "coefficient-2", "zero", "other-ring"])
def test_algebra_morphism_takes_only_monic_monomials(image):
    Rz = LaurentRing(["Z"], QQ)
    domain = laurent_quotient([lpoly(Rz, {(2,): 1, (0,): -1})])
    Rw = LaurentRing(["w"], QQ)
    codomain = laurent_quotient([lpoly(Rw, {(2,): 1, (0,): -1})])
    with pytest.raises(UsageError, match="image of generator 0"):
        algebra_morphism(domain, codomain, [image(Rz, Rw)])


def test_polynomial_quotient_graded_dims():
    qa = polynomial_quotient(QQ, ["H"], [{(3,): Fraction(1)}])
    assert qa.graded_dims() == [1, 1, 1]


# --- independent oracles -------------------------------------------------------

F7 = PrimeField(7)


def sympy_reduced_basis(field, gens, nvars):
    """Reduced degrevlex basis from sympy.groebner, as monic poly dicts over
    `field` in ascending order of leading monomials, as `buchberger` returns.

    sympy's grevlex with generators x0, x1, ... takes x0 as the largest
    variable, as `degrevlex` does.
    """
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{nvars}")

    def to_expr(g):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[x**k for x, k in zip(xs, e)])
            for e, c in g.items()
        ])

    exprs = [to_expr(g) for g in gens]
    if field is QQ:
        gb = sympy.groebner(exprs, *xs, order="grevlex", domain="QQ")
        convert = lambda c: Fraction(int(c.p), int(c.q))
    else:
        gb = sympy.groebner(exprs, *xs, order="grevlex", modulus=field.char)
        # sympy's GF(p) coefficients are symmetric, in (-p/2, p/2]
        convert = lambda c: int(c) % field.char
    basis = []
    for p in gb.polys:
        g = {e: convert(c) for e, c in p.terms()}
        inv = field.inv(g[max(g, key=degrevlex)])
        basis.append({e: field.mul(inv, c) for e, c in g.items()})
    return sorted(basis, key=lambda g: degrevlex(max(g, key=degrevlex)))


def random_ideal(rng, field, nvars=3, max_deg=3):
    """2-4 generators of 1-4 terms each, every term of degree <= max_deg and
    the first of degree >= 1, so no generator is a constant."""
    gens = []
    for _ in range(rng.randint(2, 4)):
        g = {}
        for t in range(rng.randint(1, 4)):
            deg = rng.randint(0 if t else 1, max_deg)
            cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
            e = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
            g[e] = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(g)
    return gens


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_reduced_basis_matches_sympy_on_random_ideals(field):
    rng = random.Random(2023)
    for _ in range(20):
        gens = random_ideal(rng, field)
        assert buchberger(field, gens) == sympy_reduced_basis(field, gens, 3)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("name", ["CP2", "CP1xCP1"])
def test_reduced_basis_matches_sympy_on_laurent_encodings(monkeypatch, field, name):
    calls = record_buchberger(monkeypatch)
    P = corpus()[name]
    jacobian_ring(superpotential(P, field))
    qh_presentation(P, field)
    assert len(calls) == 2
    for gens, _, gb in calls:
        nvars = len(next(iter(gens[0])))
        assert gb == sympy_reduced_basis(field, gens, nvars)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_reduced_basis_invariant_under_permutation_and_rescaling(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    monomial = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 3)
    unit = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(field.from_int)
    poly = st.dictionaries(monomial, unit, min_size=1, max_size=4)

    @st.composite
    def moved_generators(draw):
        gens = draw(st.lists(poly, min_size=2, max_size=4))
        order = draw(st.permutations(range(len(gens))))
        scales = draw(st.lists(unit, min_size=len(gens), max_size=len(gens)))
        moved = [
            {e: field.mul(s, c) for e, c in gens[k].items()}
            for k, s in zip(order, scales)
        ]
        return gens, moved

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(moved_generators())
    def check(case):
        gens, moved = case
        assert buchberger(field, moved) == buchberger(field, gens)

    check()


def s_polynomial(field, f, g):
    """S-polynomial of the monic poly dicts f and g: lcm/lead(f) * f minus
    lcm/lead(g) * g."""
    lf, lg = (max(h, key=degrevlex) for h in (f, g))
    lcm = tuple(map(max, lf, lg))
    s = {}
    for h, lead, sign in ((f, lf, field.one), (g, lg, field.neg(field.one))):
        for e, c in h.items():
            k = tuple(x + y - z for x, y, z in zip(e, lcm, lead))
            acc = field.add(s.get(k, field.zero), field.mul(sign, c))
            if acc == field.zero:
                s.pop(k, None)
            else:
                s[k] = acc
    return s


@pytest.mark.parametrize("name", list(ladder()))
def test_every_s_polynomial_of_the_basis_reduces_to_zero(monkeypatch, name):
    # Buchberger's criterion with no pair left out: the returned basis is a
    # Groebner basis whatever pairs the product and chain criteria skipped
    calls = record_buchberger(monkeypatch)
    P = ladder()[name]
    F2 = PrimeField(2)
    qh_presentation(P, F2, "plain")
    qh_presentation(P, F2, "mod2_weights")
    for field in (F7, QQ):
        jacobian_ring(superpotential(P, field))
    assert len(calls) == 4
    for (gens, _, gb), field in zip(calls, (F2, F2, F7, QQ)):
        words = grobner.Words(len(next(iter(gens[0]))))
        basis = grobner.Divisors(field, words, [words.pack_poly(g) for g in gb])
        for f, g in itertools.combinations(gb, 2):
            s = words.pack_poly(s_polynomial(field, f, g))
            assert normal_form_poly(field, s, basis, Budget()) == {}


def reference_basis_mult(qa, j):
    """Multiplication by staircase[j] built the other way: one matrix per
    encoded variable from normal forms, multiplied along the monomial."""
    F = qa.field
    per_variable = [
        linalg.transpose([qa.nf_coords({tuple(a + b for a, b in zip(m, x)): F.one})
                          for m in qa.staircase])
        for x in unit_monomials(len(qa.names))
    ]
    out = linalg.identity(F, qa.dim)
    for v, e in enumerate(qa.staircase[j]):
        for _ in range(e):
            out = linalg.mat_mul(F, per_variable[v], out)
    return out


def _quotients_for_reference():
    for field in (QQ, F7):
        for P in (corpus()["CP2"], corpus()["CP1xCP1xCP1"], dp6()):
            yield jacobian_ring(superpotential(P, field))
    F2 = PrimeField(2)
    yield qh_presentation(corpus()["CP2"], F2, "plain")
    yield qh_presentation(corpus()["CP2"], F2, "mod2_weights")
    # structure constants with non-integral rationals, such as 1/18
    half_three = json.loads((DATA / "half_three.json").read_text())
    yield jacobian_ring(laurent_from_json(half_three))
    # polynomial quotients, with no inverse variables
    for field in (QQ, PrimeField(3)):
        for P in (corpus()["CP2"], dp6()):
            yield quantum._cohomology_quotient(
                P, field, primitive_collections(validate(P), P.num_facets))


def test_basis_products_match_per_variable_reference():
    for qa in _quotients_for_reference():
        for j in range(qa.dim):
            columns = qa.basis_mult_matrix(j)
            assert dense_columns(columns, qa.dim) == reference_basis_mult(qa, j)


def test_finite_algebra_reduces_under_the_quotient_budget():
    budget = Budget()
    jac = jacobian_ring(superpotential(corpus()["CP1xCP1xCP1"], F7), budget)
    assert budget.steps == 0
    A = jac.finite_algebra()
    # one normal form per border column off the staircase: the 8 staircase
    # monomials times z1, z2, z3 leave the staircase 12 times
    assert budget.steps == 12
    assert jac.finite_algebra() is A
    assert budget.steps == 12
    # the border table is shared, so building a matrix again reduces nothing
    jac.basis_mult_matrix(jac.dim - 1)
    assert budget.steps == 12
    small = Budget(3)
    jac = jacobian_ring(superpotential(corpus()["CP1xCP1xCP1"], F7), small)
    with pytest.raises(ResourceBudgetError):
        jac.finite_algebra()


def cleared(g, n):
    """Reference encoding: g times the least z-monomial that clears its
    negative exponents, with no inverse variable.  It differs from the
    encoded generator by a unit, so it generates the same ideal."""
    low = [min(0, *(e[i] for e in g.terms)) for i in range(n)]
    return {(0,) * n + tuple(x - m for x, m in zip(e, low)): c
            for e, c in g.terms.items()}


def assert_matches_cleared_reference(qa):
    """The Laurent quotient equals the one built from cleared generators:
    the same reduced basis, staircase and finite flag."""
    F, n = qa.field, qa.source_ring.nvars
    units = [{(0,) * (2 * n): F.neg(F.one),
              tuple(int(k in (i, n + i)) for k in range(2 * n)): F.one}
             for i in range(n)]
    gens = [g for g in qa.source_gens if not g.is_zero()]
    reference = polynomial_quotient(F, qa.names, [cleared(g, n) for g in gens] + units)
    assert buchberger(F, [grobner._encode(g) for g in gens] + units) == reference.gb
    assert qa.gb == reference.gb
    assert qa.finite == reference.finite
    assert qa.staircase == reference.staircase


def test_encoding_matches_cleared_reference_on_toric_quotients():
    F2 = PrimeField(2)
    polytopes = list(corpus().values())
    for field in (QQ, F7):
        for P in polytopes + [dp6()]:
            assert_matches_cleared_reference(jacobian_ring(superpotential(P, field)))
    for P in polytopes:
        for field in (QQ, F2, F7):
            assert_matches_cleared_reference(qh_presentation(P, field, "plain"))
        assert_matches_cleared_reference(qh_presentation(P, F2, "mod2_weights"))


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_encoding_matches_cleared_reference_on_random_laurent_ideals(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(field.from_int)

    @st.composite
    def laurent_ideals(draw):
        n = draw(st.integers(2, 3))
        ring = LaurentRing([f"z{i}" for i in range(n)], field)
        poly = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), unit,
                               min_size=1, max_size=3)
        return [ring.from_terms(terms.items())
                for terms in draw(st.lists(poly, min_size=1, max_size=3))]

    finite_flags = set()

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(laurent_ideals())
    def check(gens):
        qa = laurent_quotient(gens)
        finite_flags.add(qa.finite)
        assert_matches_cleared_reference(qa)

    check()
    assert finite_flags == {True, False}


@pytest.mark.parametrize("name", ["CP2", "CP1xCP1", "CP1xCP1xCP1"])
def test_co0_matrix_is_an_algebra_map(name):
    """The normal-form matrix of co0 against the product tables of both
    quotients: it sends 1 to 1, Z_j to the coordinates of z^(nu_j), and
    products of basis elements to products of their images."""
    P = corpus()[name]
    qh = qh_presentation(P, F7)
    jac = jacobian_ring(superpotential(P, F7))
    images = [jac.source_ring.monomial(tuple(nu)) for nu in P.normals]
    m = dense_matrix(algebra_morphism(qh, jac, images))

    def image(u):
        return linalg.mat_vec(F7, m, u)

    assert image(qh.unit_coords()) == jac.unit_coords()
    for j, z in enumerate(images):
        assert image(qh.nf_coords(qh.source_ring.variable(j))) == jac.nf_coords(z)
    basis = linalg.identity(F7, qh.dim)
    for u, v in itertools.combinations_with_replacement(basis, 2):
        assert image(qh.element_product(u, v)) == jac.element_product(image(u), image(v))


def is_canonical(field, x):
    if field.char:
        return type(x) is int and 0 <= x < field.char
    return type(x) is int or type(x) is Fraction and x.denominator > 1


@pytest.mark.parametrize("field", [F2, F7, QQ], ids=["F2", "F7", "Q"])
@pytest.mark.parametrize("name", [*corpus(), "dP6", "CP2xCP1-sheared"])
def test_walk_matches_per_monomial_normal_forms_for_co0(name, field):
    P = {"dP6": dp6, "CP2xCP1-sheared": reparametrised}.get(name, lambda: corpus()[name])()
    qh = qh_presentation(P, field)
    jac = jacobian_ring(superpotential(P, field))
    images = [jac.source_ring.monomial(tuple(nu)) for nu in P.normals]
    mor = algebra_morphism(qh, jac, images)
    assert dense_matrix(mor) == reference_morphism_matrix(qh, jac, images)
    assert all(is_canonical(field, x) for col in mor.columns for x in col.values())


@pytest.mark.parametrize("name", ["CP2", "CP1xCP1", "CP1xCP1xCP1", "dP6",
                                  "CP2xCP1-sheared"])
def test_walk_matches_per_monomial_normal_forms_for_pi(name):
    P = {"dP6": dp6, "CP2xCP1-sheared": reparametrised}.get(name, lambda: corpus()[name])()
    qh_r = qh_presentation(P, F2, "mod2_weights")
    qh = qh_presentation(P, F2, "plain")
    images = [qh.source_ring.variable(i) for i in range(qh.source_ring.nvars)]
    assert dense_matrix(algebra_morphism(qh_r, qh, images)) == reference_morphism_matrix(
        qh_r, qh, images)


def test_every_normal_form_ticks_the_quotient_budget():
    """The Frobenius lift's images, the first Chern class and the images of
    a morphism are reduced under the budget their codomain was built under."""
    P = corpus()["CP2"]
    qh_r = qh_presentation(P, F2, "mod2_weights", Budget())
    steps = qh_r.budget.steps
    frobenius_matrix(qh_presentation(P, F2, "plain"), qh_r)
    assert qh_r.budget.steps > steps

    jac = jacobian_ring(superpotential(P, F7), Budget())
    steps = jac.budget.steps
    c1_element("jac", P, F7, algebra=jac)
    assert jac.budget.steps > steps

    qh = qh_presentation(P, F7, "plain", Budget())
    jac.finite_algebra()
    steps = jac.budget.steps
    images = [jac.source_ring.monomial(tuple(nu)) for nu in P.normals]
    assert algebra_morphism(qh, jac, images).well_defined
    assert jac.budget.steps > steps


def test_the_staircase_is_stored_once():
    """The sorted list of lead words is the one attribute of a quotient
    with an entry per staircase monomial; 1 sits at index 0."""
    P = functools.reduce(polytope_product, [corpus()["CP1"]] * 6)
    qa = qh_presentation(P, F2, "mod2_weights")
    assert qa.dim == 4096
    sized = [name for name, value in vars(qa).items()
             if isinstance(value, (list, tuple, dict)) and len(value) == qa.dim]
    assert sized == ["_stair"]
    assert qa._stair == sorted(qa._stair) and qa._stair[0] == 0
    assert qa.unit_coords() == qa.nf_coords(qa.source_ring.one())


def test_a_word_outside_the_staircase_raises_from_the_position_lookup():
    """Bisection finds every staircase word at its index; a word between
    two of them, or past the last, is an anomaly and not a neighbour's
    index."""
    R = LaurentRing(["x", "y"], QQ)
    qa = laurent_quotient([lpoly(R, {(2, 0): 1, (0, 0): -1}),
                           lpoly(R, {(0, 3): 1, (0, 0): -1})])
    assert [qa._position(k) for k in qa._stair] == list(range(qa.dim))
    words = qa._divisors.words
    leads = [words.pack(max(g, key=degrevlex)) for g in qa.gb]
    inside = [k for k in leads if k < qa._stair[-1]]
    assert inside and max(leads) > qa._stair[-1]
    for k in inside + [max(leads)]:
        with pytest.raises(AnomalyError, match="is not standard"):
            qa._position(k)


# --- packed monomial words ------------------------------------------------------


def test_packed_words_agree_with_exponent_tuples():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    half = grobner.DEGREE_CAP // 2

    @st.composite
    def monomial_pairs(draw):
        # a and b of total degree < cap / 2, so a * b and lcm(a, b) stay
        # under the cap; b often lies below a, so divisibility often holds
        n = draw(st.integers(1, 12))
        exponent = st.one_of(st.integers(0, 3), st.integers(0, (half - 1) // n))
        a = tuple(draw(st.lists(exponent, min_size=n, max_size=n)))
        if draw(st.booleans()):
            b = tuple(draw(st.integers(0, x)) for x in a)
        else:
            b = tuple(draw(st.lists(exponent, min_size=n, max_size=n)))
        return a, b

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(monomial_pairs())
    def check(case):
        a, b = case
        words = grobner.Words(len(a))
        ka, kb = words.pack(a), words.pack(b)
        assert words.unpack(ka) == a and words.unpack(kb) == b
        assert (ka < kb) == (degrevlex(a) < degrevlex(b))
        assert (ka == kb) == (a == b)
        product = tuple(x + y for x, y in zip(a, b))
        assert ka + kb == words.pack(product)
        assert words.unpack(ka + kb) == product
        assert words.divides(kb, ka) == all(y <= x for x, y in zip(a, b))
        assert words.divides(ka, kb) == all(x <= y for x, y in zip(a, b))
        assert words.lcm(ka, kb) == words.pack(tuple(map(max, a, b)))
        assert words.variables() == [words.pack(tuple(int(i == v) for i in range(len(a))))
                                     for v in range(len(a))]

    check()
    top = grobner.DEGREE_CAP - 1
    for n in (1, 2, 12):
        words = grobner.Words(n)
        for e in [(top // n,) * n, (top,) + (0,) * (n - 1), (0,) * (n - 1) + (top,)]:
            assert words.unpack(words.pack(e)) == e


def test_packed_words_refuse_degrees_at_the_cap():
    cap = grobner.DEGREE_CAP
    words = grobner.Words(2)
    with pytest.raises(DomainError):
        words.pack((cap - 1, 1))
    with pytest.raises(DomainError):
        words.pack((cap, 0))
    x, y = words.pack((1, 0)), words.pack((0, 1))
    below = words.pack((cap - 2, 0))
    assert words.lcm(below, y) == words.pack((cap - 2, 1)) == below + y
    with pytest.raises(DomainError):
        words.lcm(below + x, y)
    with pytest.raises(DomainError):
        buchberger(QQ, [{(cap - 1, 1): Fraction(1)}])
    # the leads x^(cap-1) and xy share x, so their lcm x^(cap-1) y is formed
    with pytest.raises(DomainError):
        buchberger(QQ, [{(cap - 1, 0): Fraction(1)}, {(1, 1): Fraction(1), (0, 0): Fraction(1)}])


def reference_staircase(words, leads):
    """The search with a visited set that the parent-tree walk replaced,
    kept as an oracle: every candidate is tested against every lead."""
    if 0 in leads:
        return []
    lead_exps = [words.exps(lm) for lm in leads]
    for v in range(words.n):
        others = words.emask & ~(grobner._FIELD << (grobner.W * v))
        if not any(e and not e & others for e in lead_exps):
            return None
    emask, guards = words.emask, words.guards
    seen = {0}
    queue = [0]
    out = []
    while queue:
        m = queue.pop()
        out.append(m)
        for step in words.variables():
            nxt = m + step
            if nxt in seen:
                continue
            seen.add(nxt)
            exps = -nxt & emask | guards
            if not any((exps - e) & guards == guards for e in lead_exps):
                queue.append(nxt)
    return sorted(out)


def box_staircase(n, leads):
    """The standard monomials of the monomial ideal spanned by `leads`
    (exponent tuples) by brute force, in ascending degrevlex order: None when
    some x_v^K, K above every lead exponent, is standard (then every power of
    x_v is), else every monomial of the box below the pure powers that no
    lead divides."""

    def standard(m):
        return not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)

    top = 1 + max((x for lm in leads for x in lm), default=0)
    if any(standard(tuple(top * (i == v) for i in range(n))) for v in range(n)):
        return None
    bounds = [min(lm[v] for lm in leads if sum(lm) == lm[v]) for v in range(n)]
    box = itertools.product(*(range(b) for b in bounds))
    return sorted(filter(standard, box), key=degrevlex)


def test_staircase_walk_matches_box_enumeration():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def lead_sets(draw):
        # small exponents in up to four variables; a pure power of each
        # variable is often added so that most cases are finite, and the
        # unit monomial sometimes, for the unit ideal
        n = draw(st.integers(1, 4))
        mono = st.tuples(*[st.integers(0, 3)] * n)
        leads = draw(st.lists(mono, max_size=6))
        for v in range(n):
            if draw(st.integers(0, 4)):
                leads.append(tuple(draw(st.integers(1, 4)) * (i == v) for i in range(n)))
        return n, draw(st.permutations(leads))

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(lead_sets())
    def check(case):
        n, leads = case
        words = grobner.Words(n)
        packed = [words.pack(lm) for lm in leads]
        got = grobner._staircase_from_leads(words, packed)
        assert got == reference_staircase(words, packed)
        expected = box_staircase(n, leads)
        if expected is None:
            assert got is None
        else:
            assert got == [words.pack(m) for m in expected]

    check()
    words = grobner.Words(2)
    assert grobner._staircase_from_leads(words, [words.pack((0, 2))]) is None
    assert grobner._staircase_from_leads(words, [words.pack((0, 0)), words.pack((1, 1))]) == []


def test_quotient_surface_keeps_exponent_tuples():
    R = LaurentRing(["z"], QQ)
    qa = laurent_quotient([lpoly(R, {(3,): 1, (0,): -1})])  # k[z]/(z^3 - 1)
    # encoded variables (w, z) with w = z^-1: z^2 = w, so z^4 = z
    assert qa.staircase == [(0, 0), (0, 1), (1, 0)]
    assert all(type(e) is tuple and len(e) == 2 for g in qa.gb for e in g)
    leads = [max(g, key=degrevlex) for g in qa.gb]
    assert leads == sorted(leads, key=degrevlex)
    assert qa.reduce_poly({(0, 4): Fraction(2), (1, 0): Fraction(1)}) == {
        (1, 0): Fraction(1), (0, 1): Fraction(2)}


def test_quotient_surface_edge_cases():
    qa = polynomial_quotient(QQ, ["H"], [{(3,): 1}])  # k[H]/(H^3)
    assert qa.basis_labels() == ["1", "H", "H^2"]
    assert qa.graded_dims() == [1, 1, 1]
    unit = polynomial_quotient(QQ, ["H"], [{(0,): 1}])  # the unit ideal
    assert unit.staircase == [] and unit.graded_dims() == [] and unit.dim == 0
    with pytest.raises(UsageError, match="not a Laurent quotient"):
        qa.encode_laurent(lpoly(LaurentRing(["z"], QQ), {(1,): 1}))
    R = LaurentRing(["x", "y"], QQ)
    infinite = laurent_quotient([lpoly(R, {(1, 0): 1, (0, 0): -1})])  # x = 1 only
    with pytest.raises(UsageError, match="polynomial lives in a different ring"):
        infinite.encode_laurent(lpoly(LaurentRing(["z"], QQ), {(1,): 1}))
    assert infinite.to_json()["dim"] is None
    with pytest.raises(UsageError):
        infinite.dim


def reference_normal_form(field, poly, basis, budget):
    """The tuple-keyed reduction the packed kernel replaced, kept as an
    oracle: `basis` is a list of (poly, leading monomial) pairs."""

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    work = dict(poly)
    remainder = {}
    while work:
        m = max(work, key=degrevlex)
        c = work[m]
        for g, lm in basis:
            if divides(lm, m):
                budget.tick("(normal form)")
                factor = field.neg(field.div(c, g[lm]))
                for e, d in g.items():
                    k = tuple(x + y - z for x, y, z in zip(e, m, lm))
                    acc = field.add(work.get(k, field.zero), field.mul(factor, d))
                    if acc == field.zero:
                        work.pop(k, None)
                    else:
                        work[k] = acc
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F7], ids=["Q", "F2", "F7"])
def test_packed_kernel_takes_the_reference_route(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.builds(
        lambda a, b: field.div(field.from_int(a), field.from_int(b)),
        st.integers(-6, 6), st.sampled_from([1, 3, 5]),
    ).filter(lambda c: c != field.zero)

    @st.composite
    def cases(draw):
        # divisors of low degree in few variables, so that several of them
        # often divide the same monomial and the first one in list order
        # must be the one taken
        n = draw(st.integers(1, 3))

        def polys(top, max_size):
            mono = st.tuples(*[st.integers(0, top)] * n)
            return st.dictionaries(mono, coeff, min_size=1, max_size=max_size)

        divisors = draw(st.lists(polys(2, 3), min_size=1, max_size=5))
        return draw(polys(4, 6)), divisors

    @hypothesis.settings(max_examples=100)
    @hypothesis.given(cases())
    def check(case):
        poly, divisors = case
        words = grobner.Words(len(next(iter(poly))))
        expected_budget, budget = Budget(), Budget()
        expected = reference_normal_form(
            field, poly, [(g, max(g, key=degrevlex)) for g in divisors], expected_budget)
        packed = grobner.Divisors(field, words, [words.pack_poly(g) for g in divisors])
        got = normal_form_poly(field, words.pack_poly(poly), packed, budget)
        assert list(words.unpack_poly(got).items()) == list(expected.items())
        assert budget.steps == expected_budget.steps

    check()
