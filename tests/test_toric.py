import functools
import importlib.util
import itertools
import json
import pathlib
import random
import sys
import types
from fractions import Fraction

import pytest

from conftest import dp6
from floergen import linalg, toric
from floergen.quantum import classical_cohomology, real_cohomology_dims
from floergen.errors import DomainError, NotMonotoneError, UsageError, ValidationError
from floergen.scalar import QQ, PrimeField, clear_denominators
from floergen.toric import (
    DelzantPolytope,
    corpus,
    h2_lattice,
    minimal_chern,
    monotone_normalize,
    polytope_product,
    primitive_collections,
    projective_space,
    superpotential,
    validate,
)
from toric_gen_oracles import (h2_lattice_by_tracker, primitive_collections_by_subsets,
                               validate_by_fractions)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def cp2():
    return projective_space(2)


def spec_cp1xcp1():
    # normal ordering e1, e2, -e1, -e2 as in the worked examples
    return DelzantPolytope(
        n=2,
        normals=[[1, 0], [0, 1], [-1, 0], [0, -1]],
        lambdas=[Fraction(1)] * 4,
        name="CP1xCP1",
    )


def test_validate_cp2():
    V = validate(cp2())
    assert len(V.vertices) == 3
    assert all(len(on) == 2 for on in V.incidence)
    assert sorted(map(tuple, V.vertices)) == [(-1, -1), (-1, 2), (2, -1)]


# the invalid polytopes the tests below build, by the check they fail
UNIMODULARITY_FAILURE = DelzantPolytope(n=2, normals=[[1, 0], [0, 1], [-1, -2]],
                                        lambdas=[Fraction(1)] * 3)
SIMPLICITY_FAILURE = DelzantPolytope(n=2, normals=[[1, 0], [0, 1], [-1, 2], [0, -1]],
                                     lambdas=[Fraction(1)] * 4)
COMPACTNESS_FAILURE = DelzantPolytope(n=2, normals=[[1, 0], [0, 1], [1, 1]],
                                      lambdas=[Fraction(1)] * 3)
REDUNDANT_FACET = DelzantPolytope(n=1, normals=[[1], [-1], [1]],
                                  lambdas=[Fraction(1), Fraction(1), Fraction(5)])
NORMALS_DO_NOT_SPAN = DelzantPolytope(n=2, normals=[[1, 0], [2, 0], [-1, 0]],
                                      lambdas=[1, 1, 1])
FAILURE_MESSAGES = [
    (2, [[1, 0], [0, 1]], [1, 1], "facet_count", "need at least 3 facets, got 2"),
    (2, [[1, 0], [-1, 0], [2, 0]], [1, 1, 1], "compactness",
     "facet normals do not span; polytope is unbounded"),
    (1, [[1], [2]], [1, 1], "compactness", "unbounded along recession ray (1)"),
    (1, [[-1], [-1]], [1, 1], "compactness", "unbounded along recession ray (-1)"),
    (1, [[1], [-1]], [-2, 1], "nonempty", "no vertices found; polytope empty"),
]


def test_validate_unimodularity_failure():
    with pytest.raises(ValidationError) as info:
        validate(UNIMODULARITY_FAILURE)
    assert info.value.check == "unimodularity"
    assert info.value.facets == [1, 3]


def test_validate_simplicity_failure():
    with pytest.raises(ValidationError) as info:
        validate(SIMPLICITY_FAILURE)
    assert info.value.check == "simplicity"
    assert info.value.facets == [1, 2, 3]
    assert info.value.vertex == ["-1", "-1"]


def test_validate_compactness_failure():
    with pytest.raises(ValidationError) as info:
        validate(COMPACTNESS_FAILURE)
    assert info.value.check == "compactness"
    assert info.value.facets == [1]
    assert str(info.value) == "unbounded along recession ray (0, 1) (facets [1])"


@pytest.mark.parametrize("n, normals, lambdas, check, message", FAILURE_MESSAGES,
                         ids=["two-facets", "normals-do-not-span", "ray-plus", "ray-minus", "empty"])
def test_validate_failure_check_and_message(n, normals, lambdas, check, message):
    P = DelzantPolytope(n=n, normals=normals, lambdas=[Fraction(x) for x in lambdas])
    with pytest.raises(ValidationError) as info:
        validate(P)
    assert info.value.check == check
    assert str(info.value) == message


def test_validate_redundant_facet():
    with pytest.raises(ValidationError) as info:
        validate(REDUNDANT_FACET)
    assert info.value.check == "irredundancy"
    assert info.value.facets == [3]


def test_monotone_normalize_translation():
    P = DelzantPolytope(n=2, normals=[[1, 0], [0, 1], [-1, -1]],
                        lambdas=[Fraction(1), Fraction(1), Fraction(2)])
    Q = monotone_normalize(P)
    assert Q.lambdas == [Fraction(1)] * 3
    assert Q.normalization["translation"] == ["1/3", "1/3"]
    assert Q.normalization["scale"] == "4/3"
    validate(Q)


def test_monotone_normalize_idempotent():
    Q = monotone_normalize(cp2())
    assert Q.lambdas == [Fraction(1)] * 3
    assert Q.normalization["translation"] == ["0", "0"]
    assert Q.normalization["scale"] == "1"


def _monotone_inputs():
    """The corpus and dP6, each as given and as 3P - e_1, which is monotone
    but not normalized."""
    for P in [*corpus().values(), dp6()]:
        yield P
        yield DelzantPolytope(n=P.n, normals=P.normals, name=P.name,
                              lambdas=[Fraction(3) + nu[0] for nu in P.normals])


def test_monotone_normalize_validates_once(monkeypatch):
    calls = []

    def counting_validate(P):
        calls.append(P)
        return validate(P)

    monkeypatch.setattr(toric, "validate", counting_validate)
    for P in _monotone_inputs():
        calls.clear()
        Q = monotone_normalize(P)
        assert calls == [P]
        assert Q.lambdas == [Fraction(1)] * P.num_facets
        # the output is Delzant, with the input's vertex-facet incidence
        assert validate(Q).incidence == validate(P).incidence


def test_monotone_normalize_failure():
    P = DelzantPolytope(n=2, normals=[[1, 0], [0, 1], [-1, 0], [0, -1]],
                        lambdas=[Fraction(1), Fraction(1), Fraction(1), Fraction(2)])
    with pytest.raises(NotMonotoneError):
        monotone_normalize(P)


def test_h2_lattice_examples():
    assert h2_lattice(cp2()).basis == [[1, 1, 1]]
    assert h2_lattice(spec_cp1xcp1()).basis == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert h2_lattice(projective_space(3)).basis == [[1, 1, 1, 1]]


def test_h2_lattice_pairs_to_zero_with_normals():
    for P in corpus().values():
        lat = h2_lattice(P)
        assert lat.rank == P.num_facets - P.n
        for p in lat.basis:
            for i in range(P.n):
                assert sum(p[j] * P.normals[j][i] for j in range(P.num_facets)) == 0


def _h2_outcome(h2, P):
    try:
        return h2(P).basis
    except DomainError as exc:
        return str(exc)


def test_h2_lattice_rejects_normals_that_do_not_span():
    P = NORMALS_DO_NOT_SPAN
    with pytest.raises(DomainError, match="span rank 1, not n = 2.*has rank 2"):
        h2_lattice(P)
    assert _h2_outcome(h2_lattice, P) == _h2_outcome(h2_lattice_by_tracker, P)


def _bench_ladder():
    """bench/ladder.py, loaded by path: its seeded reparametrisation draws
    the polytopes the benchmark runs."""
    spec = importlib.util.spec_from_file_location("floergen_bench_ladder",
                                                  ROOT / "bench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


LADDER = _bench_ladder()


@pytest.mark.parametrize("name", list(LADDER.LADDER))
def test_h2_lattice_matches_tracker_reference_on_reparametrised_ladder(name):
    """Same column operations in the same order as the tracker-matrix
    reference, so the same basis: facet shuffles and signed coordinate
    permutations move the pivots, and on dP6 a changed tie-break shows."""
    for seed in range(60):
        P = DelzantPolytope.from_json(LADDER.reparametrise(name, seed).to_json())
        assert h2_lattice(P).basis == h2_lattice_by_tracker(P).basis, seed


@pytest.mark.parametrize("path", sorted(
    [p for d in ("tests/data", "demos/data") for p in (ROOT / d).glob("*.json")
     if "normals" in json.loads(p.read_text())]), ids=lambda p: p.stem)
def test_h2_lattice_matches_tracker_reference_on_shipped_polytopes(path):
    P = DelzantPolytope.from_json(json.loads(path.read_text()))
    assert _h2_outcome(h2_lattice, P) == _h2_outcome(h2_lattice_by_tracker, P)


def test_minimal_chern():
    assert minimal_chern(cp2()) == 3
    assert minimal_chern(projective_space(3)) == 4
    assert minimal_chern(spec_cp1xcp1()) == 2


def test_primitive_collections():
    V = validate(cp2())
    assert primitive_collections(V, 3) == [[0, 1, 2]]
    V = validate(spec_cp1xcp1())
    assert primitive_collections(V, 4) == [[0, 2], [1, 3]]
    V = validate(projective_space(3))
    assert primitive_collections(V, 4) == [[0, 1, 2, 3]]


def test_classical_cohomology_examples():
    assert classical_cohomology(cp2(), QQ) == [1, 1, 1]
    assert classical_cohomology(spec_cp1xcp1(), PrimeField(2)) == [1, 2, 1]
    assert classical_cohomology(projective_space(3), QQ) == [1, 1, 1, 1]


def test_real_cohomology_examples():
    assert real_cohomology_dims(cp2()) == [1, 1, 1]
    assert real_cohomology_dims(spec_cp1xcp1()) == [1, 2, 1]
    assert real_cohomology_dims(projective_space(3)) == [1, 1, 1, 1]


def test_cohomology_invariants_across_corpus():
    for name, P in corpus().items():
        V = validate(P)
        over_q = classical_cohomology(P, QQ)
        over_f2 = classical_cohomology(P, PrimeField(2))
        real = real_cohomology_dims(P)
        assert over_q == over_f2 == real
        assert sum(over_q) == len(V.vertices)


def test_superpotential_examples():
    W = superpotential(cp2(), QQ)
    assert sorted(W.terms) == [(-1, -1), (0, 1), (1, 0)]
    assert all(c == 1 for c in W.terms.values())

    W1 = superpotential(projective_space(1), QQ)
    assert sorted(W1.terms) == [(-1,), (1,)]

    W11 = superpotential(spec_cp1xcp1(), QQ)
    assert sorted(W11.terms) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_superpotential_requires_normalized():
    P = DelzantPolytope(n=2, normals=[[1, 0], [0, 1], [-1, -1]],
                        lambdas=[Fraction(1), Fraction(1), Fraction(2)])
    with pytest.raises(UsageError):
        superpotential(P, QQ)


def test_polytope_json_roundtrip():
    P = cp2()
    Q = DelzantPolytope.from_json(P.to_json())
    assert Q.normals == P.normals and Q.lambdas == P.lambdas and Q.name == P.name
    with pytest.raises(UsageError):
        DelzantPolytope.from_json({"dim": 2, "normals": [[1]], "lambda": ["1"]})


@pytest.mark.parametrize("value", [1.7, 1.0, "1", True])
@pytest.mark.parametrize("field", ["dim", "normal entry"])
def test_polytope_json_integer_fields_reject_non_integers(field, value):
    # CP1 with one field replaced; int() used to truncate 1.7 to 1 and accept it
    data = {"dim": 1, "normals": [[1], [-1]], "lambda": ["1", "1"]}
    if field == "dim":
        data["dim"] = value
    else:
        data["normals"][0][0] = value
    with pytest.raises(UsageError, match=f"polytope {field} must be an integer"):
        DelzantPolytope.from_json(data)


def test_product_polytope_validates():
    P = polytope_product(projective_space(1), projective_space(2))
    V = validate(P)
    assert len(V.vertices) == 6  # 2 * 3


def validation_outcome(check, P):
    """VertexData, or the error's check, facets and vertex; the message too
    except for compactness, whose ray the Fraction reference prints as reprs."""
    try:
        V = check(P)
    except ValidationError as exc:
        message = None if exc.check == "compactness" else str(exc)
        return exc.check, exc.facets, exc.vertex, message
    return V.vertices, V.incidence


def random_polytope(rng, n):
    bounded = rng.random() < 0.7  # a simplex's normals make it bounded
    normals = [[rng.randint(-2, 2) for _ in range(n)]
               for _ in range(rng.randint(1, 3) if bounded else rng.randint(n + 1, n + 3))]
    if bounded:
        normals += projective_space(n).normals
    rng.shuffle(normals)
    lambdas = [Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in normals]
    return DelzantPolytope(n=n, normals=normals, lambdas=lambdas)


@pytest.mark.parametrize("n", [2, 3])
def test_validate_integer_sign_tests_match_fraction_reference(n):
    rng = random.Random(n)
    checks = set()
    for _ in range(100):
        P = random_polytope(rng, n)
        outcome = validation_outcome(validate, P)
        assert outcome == validation_outcome(validate_by_fractions, P), P
        checks.add(outcome[0] if isinstance(outcome[0], str) else "ok")
        if not isinstance(outcome[0], str):  # a valid draw takes the walk
            assert toric._vertex_walk(P, *clear_denominators(P.lambdas)) is not None, P
    assert {"ok", "compactness", "unimodularity", "simplicity", "irredundancy"} <= checks


def _power(P, k):
    return functools.reduce(polytope_product, [P] * k)


def _fan_polytope(normals):
    """{x : <nu, x> >= -1} over the rays nu of a fan: the monotone polytope
    when the fan is smooth and Fano."""
    return DelzantPolytope(n=len(normals[0]), normals=normals, lambdas=[1] * len(normals))


def _blow_up_at_a_point(n):
    """CP^n blown up at a fixed point: the ray e_1 + ... + e_n added."""
    return _fan_polytope(projective_space(n).normals + [[1] * n])


def _projective_bundle(k, a):
    """P(O + O(a)) over CP^k: rays e_1..e_k, -(e_1 + ... + e_k) + a e_(k+1)
    and +-e_(k+1); Fano for a <= k."""
    e = [[int(i == j) for i in range(k + 1)] for j in range(k + 1)]
    return _fan_polytope(e[:k] + [[-1] * k + [a], e[k], [0] * k + [-1]])


def _valid_polytopes():
    cp1, cp2 = projective_space(1), projective_space(2)
    yield from _monotone_inputs()
    yield from (_power(cp1, k) for k in range(1, 7))
    yield from (_power(cp2, 3), _power(dp6(), 2), polytope_product(dp6(), cp2))
    yield from (_blow_up_at_a_point(3), _blow_up_at_a_point(4))
    yield from (_projective_bundle(k, a) for k, a in [(2, 2), (3, 2), (3, 3)])


def _assert_walk_matches_fraction_reference(monkeypatch, polytopes):
    """validate equals the Fraction reference on each valid polytope, with
    the subset enumeration replaced by a failure: each one takes the walk."""
    expected = [validate_by_fractions(P) for P in polytopes]

    def enumeration(*args):
        raise AssertionError("the walk deferred to the subset enumeration")

    monkeypatch.setattr(toric, "_enumerate_vertices", enumeration)
    for P, V in zip(polytopes, expected):
        assert validation_outcome(validate, P) == (V.vertices, V.incidence), P


@pytest.mark.parametrize("name", list(LADDER.LADDER))
def test_vertex_walk_matches_fraction_reference_on_reparametrised_ladder(monkeypatch, name):
    """Facet shuffles and signed coordinate permutations, each also translated
    by -seed/7 e_1, so the support constants have denominator 7."""
    polytopes = []
    for seed in range(60):
        P = DelzantPolytope.from_json(LADDER.reparametrise(name, seed).to_json())
        polytopes.append(P)
        polytopes.append(DelzantPolytope(
            n=P.n, normals=P.normals,
            lambdas=[1 + Fraction(seed * nu[0], 7) for nu in P.normals]))
    _assert_walk_matches_fraction_reference(monkeypatch, polytopes)


def test_vertex_walk_matches_fraction_reference_on_products_and_fans(monkeypatch):
    _assert_walk_matches_fraction_reference(monkeypatch, list(_valid_polytopes()))


@pytest.mark.parametrize("P", [
    UNIMODULARITY_FAILURE, SIMPLICITY_FAILURE, COMPACTNESS_FAILURE, REDUNDANT_FACET,
    NORMALS_DO_NOT_SPAN, _projective_bundle(2, 3),
    *(DelzantPolytope(n=n, normals=normals, lambdas=[Fraction(x) for x in lambdas])
      for n, normals, lambdas, _, _ in FAILURE_MESSAGES),
])
def test_validate_matches_fraction_reference_on_invalid_polytopes(P):
    outcome = validation_outcome(validate, P)
    assert outcome == validation_outcome(validate_by_fractions, P)
    assert isinstance(outcome[0], str)


def test_projective_bundle_beyond_fano_is_not_simple():
    with pytest.raises(ValidationError) as info:
        validate(_projective_bundle(2, 3))
    assert info.value.check == "simplicity"


def _assert_primitive_collections_match_subset_reference(polytopes):
    for P in polytopes:
        V = validate(P)
        assert (primitive_collections(V, P.num_facets)
                == primitive_collections_by_subsets(V, P.num_facets)), P


@pytest.mark.parametrize("name", list(LADDER.LADDER))
def test_primitive_collections_match_subset_reference_on_reparametrised_ladder(name):
    _assert_primitive_collections_match_subset_reference(
        DelzantPolytope.from_json(LADDER.reparametrise(name, seed).to_json())
        for seed in range(20))


def test_primitive_collections_match_subset_reference_on_products_and_fans():
    _assert_primitive_collections_match_subset_reference(_valid_polytopes())


def test_primitive_collections_visit_only_faces(monkeypatch):
    """The candidates grow from faces, subsets of an incidence set of n
    facets, so no subset of more than n = 6 facets is drawn on CP1^6 (the
    subset loop drew every size up to N = 12)."""
    P = _power(projective_space(1), 6)
    V = validate(P)
    sizes = []

    def combinations(items, r, _original=itertools.combinations):
        sizes.append(r)
        return _original(items, r)

    monkeypatch.setattr(toric, "itertools", types.SimpleNamespace(combinations=combinations))
    assert primitive_collections(V, P.num_facets) == [[2 * i, 2 * i + 1] for i in range(6)]
    assert sizes and max(sizes) <= P.n


def test_validate_cp1_power_makes_one_inverse_and_no_kernel(monkeypatch):
    # one inverse finds the start vertex; the subset enumeration made 792
    # kernels and 924 inverses on CP1^6
    calls = []
    for name in ("invert", "kernel_basis"):
        def counted(*args, _name=name, _original=getattr(linalg, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(linalg, name, counted)
    assert len(validate(_power(projective_space(1), 6)).vertices) == 64
    assert calls == ["invert"]
