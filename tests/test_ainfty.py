import itertools
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

from ainfty_oracles import (
    check_bimodule_relations_direct,
    check_module_relations_direct,
    cochain_coordinates,
    end_bimodule_tensors,
    flatten_cochain,
    hochschild_diff_diagonal_direct,
    hochschild_prod_gather,
    opposite_triangle,
    theta_map_gather,
)
from floergen import linalg
from floergen.algebra import FiniteAlgebra
from floergen.ainfty import (
    AInftyStructure,
    HochschildCochain,
    ainfty_residuals,
    check_bimodule_relations,
    check_module_relations,
    cohomology,
    diagonal_bimodule,
    element_cochain,
    from_dga,
    hochschild_diff,
    hochschild_prod,
    hom_bimodule,
    load_example,
    opposite,
    pi_map,
    premorphism_diff,
    self_module,
    theta_map,
    unit_cochain,
)
from floergen.errors import DomainError, UsageError
from floergen.scalar import QQ, PrimeField

EXAMPLES = ["lambda_x", "lambda_xy", "triangular", "dga3"]
DATA = pathlib.Path(__file__).resolve().parent / "data"


def structures():
    return {name: load_example(name) for name in EXAMPLES}


def random_cochain(rng, A, cap, degree):
    phi = HochschildCochain(A, list(A.degrees), degree, cap=cap)
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            want = (degree + sum(A.degrees[i] - 1 for i in key)) % 2
            val = {}
            for p in range(A.dim):
                if A.degrees[p] % 2 != want:
                    continue
                c = rng.randint(-2, 2)
                if c:
                    val[p] = Fraction(c)
            phi.set_value(r, key, val)
    return phi


# --- relations ------------------------------------------------------------------


def test_relations_hold_on_corpus():
    for name, A in structures().items():
        assert not ainfty_residuals(A, 4), name


def corrupted(A, k, key, i, c):
    """A copy of A with the coefficient of output i in mu^k(key) set to c,
    and with no unit when the unit is one of the inputs: the copy's unit
    would not be strict."""
    ops = {kk: {kk2: dict(v) for kk2, v in t.items()} for kk, t in A.ops.items()}
    ops[k][key][i] = c
    return AInftyStructure(field=A.field, degrees=list(A.degrees), ops=ops,
                           unit=None if A.unit in key else A.unit)


def corrupted_lambda_x():
    # flip mu^2(x, 1): breaks arity 3
    return corrupted(load_example("lambda_x"), 2, (1, 0), 1, Fraction(-1))


def test_relations_catch_corruption():
    fails = ainfty_residuals(corrupted_lambda_x(), 3)
    assert fails and any(k == 3 for k, _, _ in fails)


def test_module_and_bimodule_checks_catch_corruption():
    bad = corrupted_lambda_x()
    assert not check_module_relations(self_module(bad), cap=3)
    assert not check_bimodule_relations(diagonal_bimodule(bad), cap=3)


def test_degree_parity_validated():
    with pytest.raises(UsageError):
        AInftyStructure(field=QQ, degrees=[0, 1],
                        ops={1: {(0,): {0: Fraction(1)}}})


def lambda_x_ops(**changes):
    """lambda_x's operations (unit b0 = 1, x = b1 of degree 1) up to arity 3,
    with the entries in `changes`, keyed "k:i,j,...", replaced; None drops one."""
    ops = {k: {key: dict(out) for key, out in t.items()}
           for k, t in load_example("lambda_x").ops.items()}
    for spec, out in changes.items():
        k, key = spec.split(":")
        key = tuple(int(i) for i in key.split(","))
        if out is None:
            del ops[int(k)][key]
        else:
            ops.setdefault(int(k), {})[key] = out
    return ops


@pytest.mark.parametrize("degrees, ops, words", [
    # the structure of the strict-unit defect: it passes the A-infinity
    # relations to arity 3, and with unit=0 `cohomology` used to fail on it
    # with a message about products
    ([0, 1, 0], {1: {(0,): {1: 1}}, 2: {(2, 2): {2: 1}}}, r"mu\^1\(b0\) is not 0"),
    ([0, 1], lambda_x_ops(**{"2:0,1": {1: 2}}), r"mu\^2\(b0, b1\) is not \+-b1"),
    ([0, 1], lambda_x_ops(**{"2:1,0": None}), r"mu\^2\(b1, b0\) is not \+-b1"),
    ([0, 1], lambda_x_ops(**{"2:0,0": {0: 2}}), r"mu\^2\(b0, b0\) is not \+-b0"),
    ([0, 1], lambda_x_ops(**{"3:1,0,1": {1: 1}}), r"it is an input of mu\^3"),
], ids=["mu1", "left-product", "right-product", "unit-squared-doubled", "mu3-input"])
def test_unit_that_is_not_strict_is_rejected(degrees, ops, words):
    if len(degrees) == 3:
        assert not ainfty_residuals(
            AInftyStructure(field=QQ, degrees=degrees, ops=ops), 3)
    with pytest.raises(UsageError, match="unit b0 is not strict: " + words):
        AInftyStructure(field=QQ, degrees=degrees, ops=ops, unit=0)


CURVED_OPS = {0: {(): {0: Fraction(1)}},
              2: {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}}}


@pytest.mark.parametrize("ops, labels, words", [
    (CURVED_OPS, None, "mu^0"),
    ({-1: {(1,): {1: Fraction(1)}}}, None, "mu^-1"),
    ({2: {(0, 0): {0: Fraction(1)}}}, ["a"], "1 labels"),
], ids=["mu0-curvature", "arity-minus-1", "one-label-for-dim-2"])
def test_arity_below_one_and_label_count_rejected(ops, labels, words):
    # a curved mu^0 used to be accepted and then ignored by the residuals
    with pytest.raises(UsageError, match=re.escape(words)):
        AInftyStructure(field=QQ, degrees=[0, 0], ops=ops, labels=labels)
    data = {"field": "Q", "degrees": [0, 0],
            "mu": {str(k): [{"inputs": list(key),
                             "output": {str(i): str(c) for i, c in out.items()}}
                            for key, out in t.items()] for k, t in ops.items()}}
    if labels is not None:
        data["labels"] = labels
    with pytest.raises(UsageError, match=re.escape(words)):
        AInftyStructure.from_json(data)


def test_zero_coefficients_are_dropped_so_json_roundtrips():
    # 3 and 6 vanish in F3: the tensors keep no zero coefficient, no empty
    # output and no empty arity, as from_json builds them
    F3 = PrimeField(3)
    A = AInftyStructure(field=F3, degrees=[0, 0],
                        ops={2: {(0, 0): {0: 3, 1: 1}, (0, 1): {1: 6}},
                             3: {(0, 0, 0): {0: 0}}})
    assert A.ops == {2: {(0, 0): {1: 1}}}
    assert A.by_output == {1: [(2, (0, 0), 1)]}
    assert AInftyStructure.from_json(A.to_json()).ops == A.ops
    B = AInftyStructure(field=QQ, degrees=[0, 1],
                        ops={1: {(0,): {0: Fraction(0)}, (1,): {1: Fraction(0)}}})
    assert B.ops == {} and B.by_output == {}
    assert AInftyStructure.from_json(B.to_json()).ops == B.ops


def test_integral_rational_coefficients_are_stored_as_ints():
    A = AInftyStructure(field=QQ, degrees=[0, 1],
                        ops={2: {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1, 2)}}})
    assert type(A.op(2, (0, 0))[0]) is int
    assert A.op(2, (0, 1)) == {1: Fraction(1, 2)}


# --- opposite --------------------------------------------------------------------


def test_opposite_is_involution():
    for name, A in structures().items():
        assert opposite(opposite(A)).ops == A.ops, name


def test_graded_commutative_fixed_by_opposite():
    for name in ("lambda_x", "lambda_xy", "dga3"):
        A = load_example(name)
        assert opposite(A).ops == A.ops, name


def test_triangular_opposite_differs_but_cohomology_opposite():
    T = load_example("triangular")
    Top = opposite(T)
    assert Top.ops != T.ops
    H = cohomology(T)
    Hop = cohomology(Top)
    assert Hop.degrees == H.degrees
    assert Hop.basis_mult == H.graded_opposite().basis_mult


def random_structure(rng, field, degrees, max_arity, entries, unit=None):
    """Random nonzero operation entries of the right degree parity, with no
    A-infinity relations: a test bed for formulas linear in the operations.
    An even-degree `unit` is made strict: the entries with it as an input
    are replaced by mu^2(e, a) = (-1)^{|a|} a and mu^2(a, e) = a."""
    dim = len(degrees)
    ops = {}
    for _ in range(entries):
        k = rng.randint(1, max_arity)
        key = tuple(rng.randrange(dim) for _ in range(k))
        want = (sum(degrees[i] for i in key) + 2 - k) % 2
        outs = [i for i in range(dim) if degrees[i] % 2 == want]
        ops.setdefault(k, {})[key] = {
            i: rng.randint(1, field.char - 1) if field.char
            else Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            for i in rng.sample(outs, rng.randint(1, len(outs)))
        }
    if unit is not None:
        ops = {k: {key: out for key, out in t.items() if unit not in key}
               for k, t in ops.items()}
        for a in range(dim):
            ops.setdefault(2, {})[(unit, a)] = {
                a: field.neg(field.one) if degrees[a] % 2 else field.one}
            ops[2][(a, unit)] = {a: field.one}
    return AInftyStructure(field=field, degrees=list(degrees), ops=ops, unit=unit)


def test_opposite_matches_triangle_sum():
    rng = random.Random(11)
    cases = [load_example(name) for name in EXAMPLES]
    cases += [VARIANTS[v](A) for v in sorted(VARIANTS) for A in cases[:4]]
    cases += [random_structure(rng, field, [0, 1, 0, 1, 1], 6, 120)
              for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(5))]
    for A in cases:
        assert opposite(A).ops == opposite_triangle(A).ops, A.field


def test_opposite_preserves_unit():
    A = load_example("lambda_x")
    assert opposite(A).unit == A.unit


# --- cohomology -------------------------------------------------------------------


def test_cohomology_zero_differential_recovers_algebra():
    A = load_example("lambda_x")
    H = cohomology(A)
    assert H.dim == 2 and sorted(H.degrees) == [0, 1]


def test_cohomology_acyclic_two_term():
    # k -> k with an isomorphism differential
    A = from_dga(QQ, [0, 1], {1: {0: Fraction(1)}}, {}, labels=["s", "t"])
    assert cohomology(A).dim == 0


def test_cohomology_dga3():
    H = cohomology(load_example("dga3"))
    assert H.dim == 1 and H.degrees == [0] and H.unit == [1]


def test_cohomology_rejects_nonsquare_zero():
    bad = AInftyStructure(
        field=QQ, degrees=[0, 1],
        ops={1: {(0,): {1: Fraction(1)}, (1,): {0: Fraction(1)}}},
    )
    with pytest.raises(DomainError):
        cohomology(bad)


def test_opposite_cohomology_koszul_signs_all_examples():
    for name, A in structures().items():
        H = cohomology(A)
        Hop = cohomology(opposite(A))
        assert Hop.basis_mult == H.graded_opposite().basis_mult, name


def cohomology_cases():
    """The corpus, tests/data/lambda_xy_half.json (Fraction coefficients),
    and lambda_xy over F_3."""
    cases = structures()
    half = json.loads((DATA / "lambda_xy_half.json").read_text())
    cases["lambda_xy_half"] = AInftyStructure.from_json(half)
    cases["lambda_xy-F3"] = reduced_mod(cases["lambda_xy"], 3)
    return cases


def test_cohomology_is_a_finite_algebra_with_its_unit():
    for name, A in cohomology_cases().items():
        H = cohomology(A)
        assert isinstance(H, FiniteAlgebra) and H.is_associative(), name
        assert H.dim == len(H.degrees) == len(H.basis_mult), name
        if A.unit is None:
            assert H.unit is None, name
        else:
            for b in linalg.identity(A.field, H.dim):
                assert H.mult(H.unit, b) == b and H.mult(b, H.unit) == b, name
        assert H.graded_opposite().graded_opposite() == H, name
        Hop = cohomology(opposite(A))
        assert Hop.basis_mult == H.graded_opposite().basis_mult, name


# --- bimodules ---------------------------------------------------------------------


def test_hom_bimodule_reproduces_end_tensors():
    for name in ("lambda_x", "dga3", "triangular"):
        A = load_example(name)
        M = self_module(A)
        P = hom_bimodule(M, M)
        for k, l in [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1)]:
            assert P.tensor(k, l) == end_bimodule_tensors(A, k, l), (name, k, l)


def test_zero_differential_kills_bimodule_differential():
    A = load_example("lambda_x")
    M = self_module(A)
    P = hom_bimodule(M, M)
    assert P.tensor(0, 0) == {}


def test_module_relations_self_module():
    for name, A in structures().items():
        assert check_module_relations(self_module(A), cap=3), name


def test_identity_premorphism_is_closed():
    # mu_N(a..., id(m)) and id(mu_M(a..., m)) land on the same output and
    # cancel; there is no inner term on a length-0 premorphism
    for name, A in structures().items():
        M = self_module(A)
        identity = {0: {((), m): {m: A.field.one} for m in range(M.dim)}}
        assert premorphism_diff(M, M, identity, 0, 3) == {}, name


def test_bimodule_relations_hom_and_diagonal():
    for name in ("lambda_x", "dga3"):
        A = load_example(name)
        M = self_module(A)
        assert check_bimodule_relations(hom_bimodule(M, M), cap=3), name
        assert check_bimodule_relations(diagonal_bimodule(A), cap=3), name
    Axy = load_example("lambda_xy")
    assert check_bimodule_relations(diagonal_bimodule(Axy), cap=2)


def test_self_module_action_is_negated_mu():
    # absent keys, and r + 1 above the largest arity, read as {}
    for name, A in structures().items():
        ops = self_module(A).ops
        top = max(A.ops)
        absent = 0
        for r in range(top + 1):
            for key in itertools.product(range(A.dim), repeat=r):
                for m in range(A.dim):
                    raw = A.op(r + 1, key + (m,))
                    assert ops.get((key, m), {}) == {i: -c for i, c in raw.items()}, (
                        name, r, key, m)
                    absent += not raw
        above = [ops.get((key, m), {}) for m in range(A.dim)
                 for key in itertools.product(range(A.dim), repeat=top)]
        assert above and not any(above), name
        assert absent > len(above), name


# (check, structure, cap): the relation checks of the ainfty-lab benchmark
SHIPPED_CHECKS = (
    [("module", name, 3) for name in EXAMPLES]
    + [("bimodule-hom", name, 3) for name in ("lambda_x", "dga3")]
    + [("bimodule-diag", name, 3) for name in ("lambda_x", "dga3")]
    + [("bimodule-diag", "lambda_xy", 2)]
)


def memoized_and_direct(check, A, cap):
    """The library check and its square-twice oracle on one structure."""
    M = self_module(A)
    if check == "module":
        return (check_module_relations(M, cap=cap),
                check_module_relations_direct(M, cap=cap))
    P = hom_bimodule(M, M) if check == "bimodule-hom" else diagonal_bimodule(A)
    return (check_bimodule_relations(P, cap=cap),
            check_bimodule_relations_direct(P, cap=cap))


@pytest.mark.parametrize("check, name, cap", SHIPPED_CHECKS,
                         ids=[f"{c}-{n}-cap{k}" for c, n, k in SHIPPED_CHECKS])
def test_memoized_checks_match_square_twice_on_corpus(check, name, cap):
    assert memoized_and_direct(check, load_example(name), cap) == (True, True)


def test_memoized_checks_match_square_twice_on_corruptions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def corruptions(draw):
        A = load_example(draw(st.sampled_from(["lambda_x", "dga3", "triangular"])))
        entries = sorted((k, key, i, c) for k, t in A.ops.items()
                         for key, out in t.items() for i, c in out.items())
        k, key, i, old = draw(st.sampled_from(entries))
        new = draw(st.fractions(-3, 3, max_denominator=3)
                   .filter(lambda c: c != 0 and c != old))
        return corrupted(A, k, key, i, new), draw(st.sampled_from([2, 3]))

    @hypothesis.settings(max_examples=30)
    @hypothesis.given(corruptions())
    def check(case):
        A, cap = case
        for kind in ("module", "bimodule-hom", "bimodule-diag"):
            memo, direct = memoized_and_direct(kind, A, cap)
            assert memo == direct, (kind, cap)

    check()


@pytest.mark.parametrize("name", ["lambda_x", "dga3"])
def test_corruption_only_in_the_top_component_is_caught(name):
    # rescaling mu^2(1, 1) leaves the diagonal d^2 zero through length 2 and
    # breaks it only at length 3, the top of the cap-3 window
    A = load_example(name)
    bad = corrupted(A, 2, (0, 0), 0, Fraction(2))
    P = diagonal_bimodule(bad)
    lengths = set()
    for r in range(4):
        for key in itertools.product(range(A.dim), repeat=r):
            for p in range(P.dim):
                phi = HochschildCochain(bad, list(P.degrees), 0, cap=3)
                phi.degree = (P.degrees[p] + sum(A.degrees[t] - 1 for t in key)) % 2
                phi.set_value(r, key, {p: Fraction(1)})
                twice = hochschild_diff(bad, P, hochschild_diff(bad, P, phi))
                lengths |= {j for j, t in twice.components.items() if any(t.values())}
    assert lengths == {3}
    assert memoized_and_direct("bimodule-diag", bad, 2) == (True, True)
    assert memoized_and_direct("bimodule-diag", bad, 3) == (False, False)


def test_premorphism_diff_is_twisted_hom_bimodule_diff():
    # a premorphism psi: (key, m_q) -> n_p is the hom(M, M)-valued cochain
    # key -> tau z_{p,q}, tau = (-1)^{(|m_q|+1)|psi|}, and this twist carries
    # premorphism_diff to the Hochschild differential of hom_bimodule(M, M)
    cap = 3
    cases = 0
    for name, A in structures().items():
        F = A.field
        M = self_module(A)
        P = hom_bimodule(M, M)

        def twisted(components, degree):
            out = {}
            for r, tensor in components.items():
                for (key, q), val in tensor.items():
                    tau = F.one if (M.degrees[q] + 1) * degree % 2 == 0 else F.neg(F.one)
                    out.setdefault(r, {}).setdefault(key, {}).update(
                        (p * M.dim + q, F.mul(tau, c)) for p, c in val.items())
            return out

        for r in range(cap + 1):
            for key in itertools.product(range(A.dim), repeat=r):
                for q in range(M.dim):
                    for p in range(M.dim):
                        degree = (M.degrees[p] + M.degrees[q]
                                  + sum(A.degrees[t] - 1 for t in key)) % 2
                        psi = {r: {(key, q): {p: F.one}}}
                        phi = HochschildCochain(A, list(P.degrees), degree, cap=cap)
                        phi.components = twisted(psi, degree)
                        via_premorphism = twisted(
                            premorphism_diff(M, M, psi, degree, cap), degree + 1)
                        assert hochschild_diff(A, P, phi).components == via_premorphism, (
                            name, key, q, p)
                        cases += 1
    assert cases == 2140


# --- Hochschild differential --------------------------------------------------------


def test_central_length_zero_cocycle_is_closed():
    # commutative algebra with zero differential: any element, viewed as a
    # length-0 cochain, is a Hochschild cocycle
    for name in ("lambda_x", "lambda_xy"):
        A = load_example(name)
        diag = diagonal_bimodule(A)
        for idx in range(A.dim):
            phi = element_cochain(A, [A.field.one if i == idx else A.field.zero
                                      for i in range(A.dim)])
            d = hochschild_diff(A, diag, phi, cap=3)
            assert d.is_zero_within(3), (name, idx)


def test_diff_squares_to_zero_random():
    rng = random.Random(97)
    for name, A in structures().items():
        diag = diagonal_bimodule(A)
        cap = 4 if A.dim <= 3 else 3
        for degree in (0, 1):
            phi = random_cochain(rng, A, cap, degree)
            once = hochschild_diff(A, diag, phi)
            twice = hochschild_diff(A, diag, once)
            assert twice.is_zero_within(twice.window()), (name, degree)


def test_diff_squares_to_zero_hom_bimodule():
    rng = random.Random(53)
    A = load_example("dga3")
    M = self_module(A)
    P = hom_bimodule(M, M)
    for degree in (0, 1):
        phi = HochschildCochain(A, list(P.degrees), degree, cap=3)
        for r in range(4):
            for key in itertools.product(range(A.dim), repeat=r):
                want = (degree + sum(A.degrees[i] - 1 for i in key)) % 2
                val = {}
                for p in range(P.dim):
                    if P.degrees[p] % 2 != want:
                        continue
                    c = rng.randint(-1, 1)
                    if c:
                        val[p] = Fraction(c)
                phi.set_value(r, key, val)
        once = hochschild_diff(A, P, phi)
        twice = hochschild_diff(A, P, once)
        assert twice.is_zero_within(twice.window())


def test_diagonal_specialization_matches_direct_formula():
    rng = random.Random(71)
    for name, A in structures().items():
        diag = diagonal_bimodule(A)
        cap = 4 if A.dim <= 3 else 3
        for degree in (0, 1):
            phi = random_cochain(rng, A, cap, degree)
            via_bimodule = hochschild_diff(A, diag, phi)
            direct = hochschild_diff_diagonal_direct(A, phi)
            for r in range(min(via_bimodule.window(), direct.window()) + 1):
                for key in itertools.product(range(A.dim), repeat=r):
                    assert via_bimodule.value(r, key) == direct.value(r, key)


def test_identity_like_cochain_differential():
    # phi = identity on A as a length-1 cochain: its differential's length-2
    # component encodes the associator and must vanish for a dga
    A = load_example("lambda_x")
    diag = diagonal_bimodule(A)
    phi = HochschildCochain(A, list(A.degrees), 1, cap=3)
    for i in range(A.dim):
        # degree of identity as a cochain: |phi(a)| = |a| -> t with
        # t + |a| - 1 = |a|, so t = 1
        phi.set_value(1, (i,), {i: A.field.one})
    d = hochschild_diff(A, diag, phi)
    # length-2 residual reproduces associator signs: total is exact already
    dd = hochschild_diff(A, diag, d)
    assert dd.is_zero_within(dd.window())


# --- Hochschild product --------------------------------------------------------------


def test_prod_length_zero_pairing():
    A = load_example("lambda_xy")
    F = A.field
    for a_idx, b_idx in itertools.product(range(A.dim), repeat=2):
        psi = element_cochain(A, [F.one if i == a_idx else F.zero for i in range(A.dim)])
        phi = element_cochain(A, [F.one if i == b_idx else F.zero for i in range(A.dim)])
        prod = hochschild_prod(A, psi, phi, cap=2)
        assert prod.value(0, ()) == A.op(2, (a_idx, b_idx))


def _parity_coords(A, coords, degree):
    """Coordinates whose elementary cochain has the given Z/2 degree."""
    out = []
    for r, key, p in coords:
        t = (A.degrees[p] + sum(A.degrees[i] - 1 for i in key)) % 2
        if t == degree % 2:
            out.append((r, key, p))
    return out


def _mu1cc_matrix(A, diag, coords, domain_coords, cap, degree):
    """Hochschild differential on elementary degree-`degree` cochains,
    expressed in the full coordinate list `coords`."""
    cols = []
    for r, key, p in domain_coords:
        phi = HochschildCochain(A, list(A.degrees), degree, cap=cap)
        phi.set_value(r, key, {p: A.field.one})
        d = hochschild_diff(A, diag, phi)
        cols.append(flatten_cochain(d, coords))
    return linalg.transpose(cols)


def _random_cocycles(A, diag, coords, cap, degree, rng, count):
    """Sample genuine Hochschild cocycles from the kernel of the capped
    differential matrix."""
    F = A.field
    domain = _parity_coords(A, coords, degree)
    d_matrix = _mu1cc_matrix(A, diag, coords, domain, cap, degree)
    kernel = linalg.kernel_basis(F, d_matrix)
    out = []
    for _ in range(count):
        combo = [F.zero] * len(domain)
        for v in kernel:
            c = Fraction(rng.randint(-2, 2))
            if c:
                combo = [F.add(x, F.mul(c, y)) for x, y in zip(combo, v)]
        phi = HochschildCochain(A, list(A.degrees), degree, cap=cap)
        for (r, key, p), c in zip(domain, combo):
            if c != F.zero:
                val = dict(phi.value(r, key))
                val[p] = c
                phi.set_value(r, key, val)
        out.append(phi)
    return out


def test_unit_cochain_identity_up_to_exact_terms():
    A = load_example("lambda_x")
    F = A.field
    diag = diagonal_bimodule(A)
    cap = 3
    coords = cochain_coordinates(A, A.dim, cap)
    rng = random.Random(7)
    e = unit_cochain(A)
    checked = 0
    for degree in (0, 1):
        primitives = _parity_coords(A, coords, degree + 1)
        d_matrix = _mu1cc_matrix(A, diag, coords, primitives, cap, (degree + 1) % 2)
        for phi in _random_cocycles(A, diag, coords, cap, degree, rng, 3):
            assert hochschild_diff(A, diag, phi).is_zero_within(cap)
            # strict-unit signs: mu^2(phi, E) ~ phi, mu^2(E, phi) ~ (-1)^|phi| phi
            left = hochschild_prod(A, e, phi, cap=cap)
            right = hochschild_prod(A, phi, e, cap=cap)
            left_sign = F.one if degree % 2 == 0 else F.neg(F.one)
            for other, sign in ((left, left_sign), (right, F.one)):
                diff_vec = [
                    F.sub(x, F.mul(sign, y))
                    for x, y in zip(flatten_cochain(other, coords),
                                    flatten_cochain(phi, coords))
                ]
                assert linalg.solve(F, d_matrix, diff_vec) is not None
                checked += 1
    assert checked >= 8


def test_prod_graded_commutative_on_cohomology():
    A = load_example("lambda_x")
    F = A.field
    diag = diagonal_bimodule(A)
    cap = 3
    coords = cochain_coordinates(A, A.dim, cap)
    rng = random.Random(19)
    checked = 0
    for deg_a, deg_b in itertools.product((0, 1), repeat=2):
        primitives = _parity_coords(A, coords, deg_a + deg_b + 1)
        d_matrix = _mu1cc_matrix(A, diag, coords, primitives, cap,
                                 (deg_a + deg_b + 1) % 2)
        psis = _random_cocycles(A, diag, coords, cap, deg_a, rng, 2)
        phis = _random_cocycles(A, diag, coords, cap, deg_b, rng, 2)
        for psi, phi in zip(psis, phis):
            ab = hochschild_prod(A, psi, phi, cap=cap)
            ba = hochschild_prod(A, phi, psi, cap=cap)
            # cohomology product [b][a] = (-1)^{|a|}[mu^2(b, a)]; graded
            # commutativity there translates to this sign on raw mu^2
            sign_exp = (deg_a * deg_b + deg_a + deg_b) % 2
            sign = F.one if sign_exp == 0 else F.neg(F.one)
            commutator = [
                F.sub(x, F.mul(sign, y))
                for x, y in zip(flatten_cochain(ab, coords),
                                flatten_cochain(ba, coords))
            ]
            assert linalg.solve(F, d_matrix, commutator) is not None
            checked += 1
    assert checked >= 4


# --- theta and Pi -----------------------------------------------------------------


def test_theta_of_unit_is_signed_identity():
    A = load_example("lambda_x")
    F = A.field
    e = [F.one if i == A.unit else F.zero for i in range(A.dim)]
    th = theta_map(A, e, cap=2)
    # theta(e)^0(x) = (-1)^{|e| (|x|-1)} mu^2(x, e) = x for a strict unit
    val = th.value(0, ())
    units = [(p, q) for p in range(A.dim) for q in range(A.dim)]
    got = {units[i]: c for i, c in val.items()}
    assert got == {(q, q): F.one for q in range(A.dim)}


def test_theta_zero_element():
    A = load_example("lambda_x")
    th = theta_map(A, [A.field.zero, A.field.zero], cap=2)
    assert th.is_zero_within(2)


def test_theta_chain_map_all_examples():
    for name, A in structures().items():
        M = self_module(A)
        P = hom_bimodule(M, M)
        cap = 3 if A.dim <= 3 else 2
        for c_idx in range(A.dim):
            F = A.field
            c = [F.one if i == c_idx else F.zero for i in range(A.dim)]
            th = theta_map(A, c, cap=cap)
            lhs = hochschild_diff(A, P, th, cap=cap)
            mu1c = A.op(1, (c_idx,))
            dense = [mu1c.get(i, F.zero) for i in range(A.dim)]
            rhs = (
                theta_map(A, dense, cap=cap)
                if any(x != F.zero for x in dense)
                else None
            )
            for r in range(lhs.window() + 1):
                for key in itertools.product(range(A.dim), repeat=r):
                    want = rhs.value(r, key) if rhs else {}
                    assert lhs.value(r, key) == want, (name, c_idx, r, key)


def test_pi_of_theta_is_unit_multiplication():
    for name in ("lambda_x", "lambda_xy", "dga3"):
        A = load_example(name)
        F = A.field
        for c_idx in range(A.dim):
            c = [F.one if i == c_idx else F.zero for i in range(A.dim)]
            th = theta_map(A, c, cap=2)
            got = pi_map(A, th)
            mu2 = A.op(2, (A.unit, c_idx))
            want = [mu2.get(i, F.zero) for i in range(A.dim)]
            assert got == want, (name, c_idx)


def test_pi_strict_unit_gives_signed_identity():
    # on a strictly unital dga, Pi(theta(c)) = (-1)^{|c|} c exactly
    for name in ("lambda_x", "lambda_xy", "dga3"):
        A = load_example(name)
        F = A.field
        for c_idx in range(A.dim):
            c = [F.one if i == c_idx else F.zero for i in range(A.dim)]
            got = pi_map(A, theta_map(A, c, cap=1))
            sign = F.one if A.degrees[c_idx] % 2 == 0 else F.neg(F.one)
            assert got == [F.mul(sign, x) for x in c]


def test_pi_zero_length_zero_component():
    A = load_example("lambda_x")
    phi = HochschildCochain(A, list(A.degrees), 0, cap=2)
    phi.set_value(1, (1,), {1: A.field.one})
    assert pi_map(A, phi) == [A.field.zero] * A.dim


def test_pi_requires_unit():
    T = load_example("triangular")
    phi = HochschildCochain(T, list(T.degrees), 0, cap=1)
    with pytest.raises(UsageError):
        pi_map(T, phi)


# --- serialization -----------------------------------------------------------------


def test_json_roundtrip():
    for name, A in structures().items():
        B = AInftyStructure.from_json(A.to_json())
        assert B.ops == A.ops and B.degrees == A.degrees and B.unit == A.unit


def test_malformed_json():
    with pytest.raises(UsageError):
        AInftyStructure.from_json({"field": "Q"})


def test_json_labels_must_be_a_list():
    # "1x" used to give the labels ['1', 'x']
    data = {**load_example("lambda_x").to_json(), "labels": "1x"}
    with pytest.raises(UsageError, match="labels must be a JSON array"):
        AInftyStructure.from_json(data)


@pytest.mark.parametrize("field", ["degree", "input index", "unit"])
@pytest.mark.parametrize("value", [1.0, 0.7, "1", True])
def test_json_integer_fields_reject_non_integers(field, value):
    # int() used to truncate 0.7 to 0 and parse "1"
    data = load_example("lambda_x").to_json()
    if field == "degree":
        data["degrees"][1] = value
    elif field == "input index":
        data["mu"]["2"][0]["inputs"][0] = value
    else:
        data["unit"] = value
    with pytest.raises(UsageError, match=f"{field} must be an integer"):
        AInftyStructure.from_json(data)


# --- the corpus over F_p and with non-integral rational coefficients ----------------


def reduced_mod(A, p):
    """A's integral coefficients read in F_p."""
    F = PrimeField(p)
    ops = {k: {key: {i: F.from_int(c) for i, c in out.items() if c % p}
               for key, out in t.items()} for k, t in A.ops.items()}
    return AInftyStructure(field=F, degrees=list(A.degrees), ops=ops,
                           unit=A.unit, labels=list(A.labels))


def rescaled(A, t):
    """mu'^k = t^{k-2} mu^k, written in the basis b'_i = t b_i for every
    non-unit b_i.  Both steps keep the A-infinity relations, and the second
    is a strict isomorphism fixing the unit.  Products with the unit keep
    their coefficients; which structures turn non-integral is pinned by
    `test_rescaled_corpus_is_not_integral`."""
    s = [Fraction(1) if i == A.unit else t for i in range(A.dim)]
    ops = {}
    for k, tensor in A.ops.items():
        ops[k] = {}
        for key, out in tensor.items():
            scale = t ** (k - 2)
            for j in key:
                scale *= s[j]
            ops[k][key] = {i: c * scale / s[i] for i, c in out.items()}
    return AInftyStructure(field=QQ, degrees=list(A.degrees), ops=ops,
                           unit=A.unit, labels=list(A.labels))


VARIANTS = {
    "F2": lambda A: reduced_mod(A, 2),
    "F3": lambda A: reduced_mod(A, 3),
    "F5": lambda A: reduced_mod(A, 5),
    "Q-t1/2": lambda A: rescaled(A, Fraction(1, 2)),
    "Q-t2/3": lambda A: rescaled(A, Fraction(2, 3)),
}


def test_rescaled_corpus_is_not_integral():
    for variant in ("Q-t1/2", "Q-t2/3"):
        fractional = {name for name in EXAMPLES
                      for t in VARIANTS[variant](load_example(name)).ops.values()
                      for out in t.values() for c in out.values()
                      if c.denominator != 1}
        want = {"lambda_xy", "triangular"} | ({"dga3"} if variant == "Q-t2/3" else set())
        assert fractional == want, variant


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_relations_and_hom_tensors_hold_over_other_coefficients(variant):
    for name in EXAMPLES:
        B = VARIANTS[variant](load_example(name))
        assert ainfty_residuals(B, 4) == [], (variant, name)
        assert opposite(opposite(B)).ops == B.ops, (variant, name)
        P = hom_bimodule(self_module(B), self_module(B))
        for k, l in [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1)]:
            assert P.tensor(k, l) == end_bimodule_tensors(B, k, l), (variant, name, k, l)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("check, name, cap", SHIPPED_CHECKS,
                         ids=[f"{c}-{n}-cap{k}" for c, n, k in SHIPPED_CHECKS])
def test_memoized_checks_hold_over_other_coefficients(variant, check, name, cap):
    B = VARIANTS[variant](load_example(name))
    assert memoized_and_direct(check, B, cap) == (True, True)


def field_cochain(rng, A, cap, degree):
    """random_cochain with its integer coefficients read in A's field over
    F_p, and divided by 3 over Q."""
    phi = random_cochain(rng, A, cap, degree)
    p = A.field.char
    for comp in phi.components.values():
        for key, val in comp.items():
            comp[key] = {i: int(c) % p if p else c / 3 for i, c in val.items()
                         if not p or c % p}
    return phi


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_diagonal_differential_matches_direct_over_other_coefficients(variant):
    rng = random.Random(variant)
    for name in EXAMPLES:
        B = VARIANTS[variant](load_example(name))
        diag = diagonal_bimodule(B)
        for degree in (0, 1):
            phi = field_cochain(rng, B, 3, degree)
            once = hochschild_diff(B, diag, phi)
            assert once.components == hochschild_diff_diagonal_direct(B, phi).components, (
                variant, name, degree)
            assert hochschild_diff(B, diag, once).is_zero_within(3), (variant, name, degree)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", ["lambda_x", "dga3"])
def test_unit_corruption_is_caught_over_other_coefficients(variant, name):
    # mu^2(1, 1) = 1 becomes 1 + 1: 2 over F_p (p odd) and Q, 0 over F2
    B = VARIANTS[variant](load_example(name))
    F = B.field
    bad = corrupted(B, 2, (0, 0), 0, F.add(B.op(2, (0, 0))[0], F.from_int(1)))
    assert any(k == 3 for k, _, _ in ainfty_residuals(bad, 3)), variant
    for kind in ("module", "bimodule-hom", "bimodule-diag"):
        assert memoized_and_direct(kind, bad, 3) == (False, False), (variant, kind)


def test_memoized_checks_match_square_twice_on_corruptions_over_other_coefficients():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def corruptions(draw):
        variant = draw(st.sampled_from(sorted(VARIANTS)))
        name = draw(st.sampled_from(["lambda_x", "dga3", "triangular"]))
        A = VARIANTS[variant](load_example(name))
        F = A.field
        entries = sorted((k, key, i, c) for k, t in A.ops.items()
                         for key, out in t.items() for i, c in out.items())
        k, key, i, old = draw(st.sampled_from(entries))
        values = (st.integers(0, F.char - 1) if F.char
                  else st.fractions(-3, 3, max_denominator=3))
        new = draw(values.filter(lambda c: c != old))
        return corrupted(A, k, key, i, new), draw(st.sampled_from([2, 3]))

    @hypothesis.settings(max_examples=40)
    @hypothesis.given(corruptions())
    def check(case):
        A, cap = case
        for kind in ("module", "bimodule-hom", "bimodule-diag"):
            memo, direct = memoized_and_direct(kind, A, cap)
            assert memo == direct, (kind, cap)

    check()


# --- scatter against gather: the product and theta ------------------------------


def same_cochain(a, b):
    return ((a.components, a.degree, a.cap, a.exact_upto)
            == (b.components, b.degree, b.cap, b.exact_upto))


def sparse_cochain(rng, A, cap, degree):
    """field_cochain with about half of its keys kept."""
    phi = field_cochain(rng, A, cap, degree)
    for comp in phi.components.values():
        for key in [key for key in comp if rng.random() < 0.5]:
            del comp[key]
    return phi


SCATTER_FIELDS = {"Q": lambda A: A, **VARIANTS}


@pytest.mark.parametrize("variant", sorted(SCATTER_FIELDS))
def test_product_and_theta_scatter_match_gather(variant):
    # the shipped structures stop at arity 2; the random ones reach arity 4,
    # where the product puts operation inputs between and right of its slots
    rng = random.Random(variant)
    shipped = [SCATTER_FIELDS[variant](load_example(name)) for name in EXAMPLES]
    field = shipped[0].field
    randoms = [random_structure(rng, field, degrees, 4, 40, unit=degrees.index(0))
               for degrees in ([0, 1, 0], [1, 0, 1])]
    cases = 0
    for B in shipped + randoms:
        F = B.field
        for cap in range(1, 5):
            psi = sparse_cochain(rng, B, cap, rng.randrange(2))
            phi = sparse_cochain(rng, B, cap + 1, rng.randrange(2))
            pairs = [(psi, phi, None), (phi, psi, cap - 1), (psi, psi, cap - 1)]
            if B.unit is not None:
                e = unit_cochain(B)
                pairs += [(e, e, cap), (e, phi, cap), (psi, e, cap - 1)]
            for left, right, at in pairs:
                got = hochschild_prod(B, left, right, cap=at)
                want = hochschild_prod_gather(B, left, right, cap=at)
                assert same_cochain(got, want), (B.labels, cap, at)
                cases += 1
            elements = [[F.one if i == j else F.zero for i in range(B.dim)]
                        for j in range(B.dim)]
            for parity in (0, 1):
                elements.append([F.from_int(rng.randint(1, 4)) if d % 2 == parity
                                 else F.zero for d in B.degrees])
            for c in elements:
                assert same_cochain(theta_map(B, c, cap), theta_map_gather(B, c, cap)), (
                    B.labels, cap, c)
                cases += 1
    assert cases >= 250
