"""Delzant polytopes: validation, monotone normalization, lattice of sphere
classes, facet combinatorics, and the superpotential of the monotone fibre.
This module holds polytope data and combinatorics only; every presentation
of a ring built from them (H*(X_P), its real locus, QH*(X_P)) is in
`quantum`.

Vertices are enumerated by one exact inverse per n-subset of facets; no LP
machinery at desk scale.  Compactness is certified by showing the
recession cone is trivial (no kernel line, no extreme ray on any rank-(n-1)
subset of facet normals).  The sign tests against the facets run on
integers: each candidate ray or vertex is scaled once by a positive common
denominator, and the rational vectors are kept for the error messages.

Polytope JSON:
    {"name": "CP2", "dim": 2, "normals": [[1,0],[0,1],[-1,-1]],
     "lambda": ["1", "1", "1"]}
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import DomainError, NotMonotoneError, UsageError, ValidationError
from .laurent import LaurentPoly, LaurentRing
from .scalar import QQ, Field, json_int, json_list, json_str


@dataclass
class DelzantPolytope:
    n: int
    normals: list  # N rows of n integers
    lambdas: list  # N rationals
    name: str = ""
    normalization: dict | None = None  # transcript from monotone_normalize

    @property
    def num_facets(self):
        return len(self.normals)

    @classmethod
    def from_json(cls, data: dict) -> "DelzantPolytope":
        try:
            n = json_int(data["dim"], "polytope dim")
            normals = [[json_int(x, "polytope normal entry") for x in row]
                       for row in data["normals"]]
            lambdas = [QQ.from_str(str(x)) for x in json_list(data["lambda"], "lambda")]
            name = json_str(data.get("name", ""), "polytope name")
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed polytope JSON: {exc}") from exc
        if n < 1:
            raise UsageError(f"polytope dim must be at least 1, not {n}")
        if any(len(row) != n for row in normals):
            raise UsageError("normal vectors must have length dim")
        if len(lambdas) != len(normals):
            raise UsageError("need one support constant per facet")
        return cls(n=n, normals=normals, lambdas=lambdas, name=name)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim": self.n,
            "normals": [list(r) for r in self.normals],
            "lambda": [str(l) for l in self.lambdas],
        }


@dataclass
class VertexData:
    vertices: list  # rational points
    incidence: list  # per-vertex sorted facet index lists (0-based)


@dataclass
class H2Lattice:
    basis: list  # integer vectors p with sum p_j nu_j = 0

    @property
    def rank(self):
        return len(self.basis)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _scaled(v):
    """(v * d, d) for d the least common denominator of v's entries: an
    integer vector whose dot products have the signs of v's."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _point_str(v):
    return f"({', '.join(str(x) for x in v)})"


def validate(P: DelzantPolytope) -> VertexData:
    """Full Delzant validation; raises ValidationError naming the culprit.
    Sign tests run on integers: each ray or vertex is scaled once by its
    common denominator, the support constants by theirs."""
    n, N = P.n, P.num_facets
    if N < n + 1:
        raise ValidationError("facet_count", f"need at least {n + 1} facets, got {N}")

    # recession cone must be trivial: no kernel line ...
    if linalg.rank(QQ, P.normals) < n:
        raise ValidationError(
            "compactness", "facet normals do not span; polytope is unbounded"
        )
    # ... and no extreme ray
    if n == 1:
        for d in (1, -1):
            if all(nu[0] * d >= 0 for nu in P.normals):
                raise ValidationError(
                    "compactness", f"unbounded along recession ray ({d})"
                )
    # check every rank-(n-1) subset's kernel direction
    for subset in itertools.combinations(range(N), max(n - 1, 1)):
        ker = linalg.kernel_basis(QQ, [P.normals[i] for i in subset])
        if len(ker) != 1:
            continue
        ray = ker[0]
        scaled = _scaled(ray)[0]
        dots = [_dot(nu, scaled) for nu in P.normals]
        for sign in (1, -1):
            if all(sign * x >= 0 for x in dots):
                facets = [i + 1 for i in subset]
                raise ValidationError(
                    "compactness",
                    f"unbounded along recession ray {_point_str(sign * x for x in ray)} "
                    f"(facets {facets})",
                    facets=facets,
                )

    # vertex enumeration over n-subsets, one inverse each; a vertex keeps the
    # inverse of its facet normals for the unimodularity check, and its slacks
    # lam_den * <nu_i, num> + lam_i * den, the signs of <nu_i, x> + lambda_i
    # at x = num / den
    lam, lam_den = _scaled(P.lambdas)
    points = {}
    for subset in itertools.combinations(range(N), n):
        inverse = linalg.invert(QQ, [P.normals[i] for i in subset])
        if inverse is None:
            continue
        sol = linalg.mat_vec(QQ, inverse, [-P.lambdas[i] for i in subset])
        num, den = _scaled(sol)
        slack = [lam_den * _dot(nu, num) + l * den for nu, l in zip(P.normals, lam)]
        if any(x < 0 for x in slack):
            continue
        points[tuple(sol)] = inverse, slack
    vertices = []
    incidence = []
    for pt in sorted(points):
        on = [i for i, x in enumerate(points[pt][1]) if x == 0]
        if len(on) > n:
            raise ValidationError(
                "simplicity",
                f"point {_point_str(pt)} lies on facets {[i + 1 for i in on]}",
                facets=[i + 1 for i in on],
                vertex=[str(x) for x in pt],
            )
        vertices.append(list(pt))
        incidence.append(on)
    if not vertices:
        raise ValidationError("nonempty", "no vertices found; polytope empty")

    # an integer matrix is unimodular exactly when its inverse is integral;
    # a simple vertex lies on exactly the facets of the subset it came from
    for pt, on in zip(vertices, incidence):
        if any(x.denominator != 1 for row in points[tuple(pt)][0] for x in row):
            det = linalg.charpoly(QQ, [P.normals[i] for i in on]).coeffs[0]
            raise ValidationError(
                "unimodularity",
                f"facets {[i + 1 for i in on]} meet at {_point_str(pt)} "
                f"with |det| = {abs(det)}",
                facets=[i + 1 for i in on],
                vertex=[str(x) for x in pt],
            )

    covered = set()
    for on in incidence:
        covered.update(on)
    for i in range(N):
        if i not in covered:
            raise ValidationError(
                "irredundancy",
                f"facet {i + 1} contains no vertex (redundant inequality)",
                facets=[i + 1],
            )

    # nonempty interior: the vertex barycenter must satisfy all strictly
    k = len(vertices)
    bary = [Fraction(sum(v[j] for v in vertices), k) for j in range(P.n)]
    for i in range(N):
        if _dot(P.normals[i], bary) <= -P.lambdas[i]:
            raise ValidationError(
                "full_dimension",
                f"polytope has empty interior (tight at facet {i + 1})",
                facets=[i + 1],
            )
    return VertexData(vertices=vertices, incidence=incidence)


def monotone_normalize(P: DelzantPolytope) -> DelzantPolytope:
    """Translate and rescale so every support constant equals 1.

    Solves lambda_j + <nu_j, a> = c exactly; inconsistency means the polytope
    is not monotone.  Idempotent on already-normalized input.  The input is
    validated once: the output is its translate dilated by c > 0, which is
    Delzant exactly when the input is.
    """
    validate(P)
    n, N = P.n, P.num_facets
    # unknowns (a_1..a_n, c): <nu_j, a> - c = -lambda_j
    mat = [P.normals[j] + [-1] for j in range(N)]
    rhs = [-l for l in P.lambdas]
    sol = linalg.solve(QQ, mat, rhs)
    if sol is None:
        raise NotMonotoneError(
            f"{P.name or 'polytope'}: no translation equalizes the support constants"
        )
    a, c = sol[:n], sol[n]
    if c <= 0:
        raise NotMonotoneError("support constants equalize at a nonpositive value")
    return DelzantPolytope(
        n=P.n,
        normals=[list(r) for r in P.normals],
        lambdas=[1] * N,
        name=P.name,
        normalization={"translation": [str(x) for x in a], "scale": str(c)},
    )


def is_normalized(P: DelzantPolytope) -> bool:
    return all(l == 1 for l in P.lambdas)


def h2_lattice(P: DelzantPolytope) -> H2Lattice:
    """Integral basis of {p : sum_j p_j nu_j = 0} via unimodular column ops.

    Column j is nu_j followed by the unit vector e_j, so each op on the
    normals also records, in the last N entries, which combination of facets
    the column now is; a column whose normal part is cleared is a relation."""
    N, n = P.num_facets, P.n
    cols = [list(P.normals[j]) + [int(i == j) for i in range(N)] for j in range(N)]
    row = 0
    fixed = 0
    while row < n and fixed < N:
        while True:
            nz = [j for j in range(fixed, N) if cols[j][row] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][row]))
            cols[fixed], cols[j0] = cols[j0], cols[fixed]
            pivot = cols[fixed]
            done = True
            for j in range(fixed + 1, N):
                if cols[j][row] != 0:
                    q = -(cols[j][row] // pivot[row])
                    cols[j] = [x + q * y for x, y in zip(cols[j], pivot)]
                    if cols[j][row] != 0:
                        done = False
            if done:
                break
        if cols[fixed][row] != 0:
            fixed += 1
        row += 1
    basis = [c[n:] for c in cols[fixed:] if not any(c[:n])]
    # canonical sign/order for reproducibility
    canon = []
    for v in basis:
        lead = next((x for x in v if x != 0), 0)
        canon.append([-x for x in v] if lead < 0 else list(v))
    canon.sort(reverse=True)
    lat = H2Lattice(basis=canon)
    if lat.rank != N - n:
        raise DomainError(f"the {N} facet normals span rank {N - lat.rank}, not "
                          f"n = {n}: the sphere-class lattice has rank {lat.rank}")
    return lat


def minimal_chern(P: DelzantPolytope) -> int | None:
    """gcd of |sum_j p_j| over the sphere-class lattice basis; None when the
    first Chern class kills every class (degenerate)."""
    lat = h2_lattice(P)
    g = 0
    for p in lat.basis:
        g = gcd(g, abs(sum(p)))
    return g if g > 0 else None


def primitive_collections(V: VertexData, num_facets: int):
    """Minimal facet subsets with empty common intersection.

    A subset meets iff it sits inside some vertex's incidence set, so the
    collections are the minimal subsets contained in no incidence set.
    """
    inc_sets = [frozenset(on) for on in V.incidence]
    minimal = []
    for size in range(1, num_facets + 1):
        for J in itertools.combinations(range(num_facets), size):
            Js = set(J)
            if any(Js <= inc for inc in inc_sets):
                continue
            if any(set(M) <= Js for M in minimal):
                continue
            minimal.append(J)
    return [sorted(J) for J in minimal]


def superpotential(P: DelzantPolytope, field: Field) -> LaurentPoly:
    """W = sum_j z^{nu_j} for the monotone fibre; input must be normalized."""
    if not is_normalized(P):
        raise UsageError(
            "superpotential needs a monotone-normalized polytope (all lambda = 1)"
        )
    ring = LaurentRing([f"z{i + 1}" for i in range(P.n)], field)
    return ring.from_terms((tuple(nu), field.one) for nu in P.normals)


# --- corpus builders ----------------------------------------------------------


def projective_space(n: int) -> DelzantPolytope:
    normals = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    normals.append([-1] * n)
    return DelzantPolytope(
        n=n,
        normals=normals,
        lambdas=[1] * (n + 1),
        name=f"CP{n}",
    )


def polytope_product(P: DelzantPolytope, Q: DelzantPolytope, name="") -> DelzantPolytope:
    normals = [list(nu) + [0] * Q.n for nu in P.normals]
    normals += [[0] * P.n + list(nu) for nu in Q.normals]
    return DelzantPolytope(
        n=P.n + Q.n,
        normals=normals,
        lambdas=list(P.lambdas) + list(Q.lambdas),
        name=name or f"{P.name}x{Q.name}",
    )


def corpus():
    cp1 = projective_space(1)
    return {
        "CP1": cp1,
        "CP2": projective_space(2),
        "CP3": projective_space(3),
        "CP1xCP1": polytope_product(cp1, cp1),
        "CP1xCP1xCP1": polytope_product(polytope_product(cp1, cp1), cp1,
                                        name="CP1xCP1xCP1"),
    }
