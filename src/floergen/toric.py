"""Delzant polytopes: validation, monotone normalization, lattice of sphere
classes, facet combinatorics, and the superpotential of the monotone fibre.
This module holds polytope data and combinatorics only; every presentation
of a ring built from them (H*(X_P), its real locus, QH*(X_P)) is in
`quantum`.

Vertices are found by walking the vertex graph on an integer simplex
tableau (reverse search, Avis and Fukuda 1992): from the first feasible
basis in `itertools.combinations` order, one ratio test per edge.  A clean
walk certifies the vertex list, compactness, simplicity and unimodularity:
the vertex graph is connected (Balinski); an extreme ray of a pointed
polyhedron leaves some vertex as an unbounded edge; and a pivot entry of -1
keeps every basis unimodular.  On any doubt (no feasible basis, an
unbounded edge, a tie in a ratio test, a start vertex on more than n facets,
a basis that is not unimodular) the subset enumeration runs instead and
raises the error: the recession cone is trivial when the normals span and
no rank-(n-1) subset of facet normals has an extreme ray in its kernel, and
the vertices take one exact inverse per n-subset of facets.  Its sign tests
run on integers: each candidate ray or vertex is scaled once by its least
common denominator (`scalar.clear_denominators`), which keeps the signs of
its dot products, and the rational vectors are kept for the error messages.

Polytope JSON:
    {"name": "CP2", "dim": 2, "normals": [[1,0],[0,1],[-1,-1]],
     "lambda": ["1", "1", "1"]}
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import DomainError, NotMonotoneError, UsageError, ValidationError
from .laurent import LaurentPoly, LaurentRing
from .scalar import (QQ, Field, canonical, clear_denominators, json_int, json_list,
                     json_literal, json_str)


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
            lambdas = [QQ.from_str(json_literal(x, "lambda entry"))
                       for x in json_list(data["lambda"], "lambda")]
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


def _point_str(v):
    return f"({', '.join(str(x) for x in v)})"


def validate(P: DelzantPolytope) -> VertexData:
    """Full Delzant validation; raises ValidationError naming the culprit.
    The vertices come from `_vertex_walk`; on any doubt from
    `_enumerate_vertices`, which raises the error."""
    n, N = P.n, P.num_facets
    if N < n + 1:
        raise ValidationError("facet_count", f"need at least {n + 1} facets, got {N}")
    lam, lam_den = clear_denominators(P.lambdas)
    V = _vertex_walk(P, lam, lam_den) or _enumerate_vertices(P, lam, lam_den)

    covered = set()
    for on in V.incidence:
        covered.update(on)
    for i in range(N):
        if i not in covered:
            raise ValidationError(
                "irredundancy",
                f"facet {i + 1} contains no vertex (redundant inequality)",
                facets=[i + 1],
            )

    # nonempty interior: the vertex barycenter must satisfy all strictly, that
    # is <nu_i, sum v> > -k lambda_i; times lam_den both sides are integers,
    # since every vertex is -D lambda_B with D the integral inverse of its
    # facet normals
    k = len(V.vertices)
    total = [canonical(sum(col) * lam_den) for col in zip(*V.vertices)]
    for i, (nu, l) in enumerate(zip(P.normals, lam)):
        if _dot(nu, total) <= -k * l:
            raise ValidationError(
                "full_dimension",
                f"polytope has empty interior (tight at facet {i + 1})",
                facets=[i + 1],
            )
    return V


def _subset_vertex(P, subset, lam, lam_den):
    """(inverse, point, slacks) of the facets in `subset`, or None when their
    normals are dependent: the inverse of their normals, the point where
    they meet, and its slacks lam_den * <nu_i, num> + lam_i * den, the signs
    of <nu_i, x> + lambda_i at x = num / den."""
    inverse = linalg.invert(QQ, [P.normals[i] for i in subset])
    if inverse is None:
        return None
    sol = linalg.mat_vec(QQ, inverse, [-P.lambdas[i] for i in subset])
    num, den = clear_denominators(sol)
    return inverse, sol, [lam_den * _dot(nu, num) + l * den for nu, l in zip(P.normals, lam)]


def _start_vertex(P, lam, lam_den):
    """(subset, `_subset_vertex`) for the first n-subset of facets, in
    `itertools.combinations` order, whose normals are independent and whose
    point is feasible, or None.  A prefix whose normals are dependent is not
    extended: each normal is reduced, fraction-free, against the prefix's."""
    n, N = P.n, P.num_facets

    def extend(subset, echelon):
        if len(subset) == n:
            found = _subset_vertex(P, subset, lam, lam_den)
            return (subset, found) if min(found[2]) >= 0 else None
        for i in range(subset[-1] + 1 if subset else 0, N - n + len(subset) + 1):
            row = P.normals[i]
            for c, pivot_row in echelon:
                a, f = pivot_row[c], row[c]
                if f:
                    row = [a * x - f * y for x, y in zip(row, pivot_row)]
            c = next((c for c, x in enumerate(row) if x), None)
            if c is not None:
                g = gcd(*row)
                hit = extend(subset + [i], echelon + [(c, [x // g for x in row])])
                if hit:
                    return hit
        return None

    return extend([], [])


def _vertex_walk(P, lam, lam_den):
    """The VertexData of a simple, compact polytope with unimodular vertices,
    found by walking its vertex graph from `_start_vertex`; None on any
    doubt, which leaves the error to `_enumerate_vertices`.

    A basis B of n facets carries the columns d_j of the inverse D of its
    normals, each below T[:, j] = nu d_j, and the vector of slacks over the
    point, all scaled by lam_den: integers while D is integral.  Edge j
    leaves facet B_j along d_j until the first facet i with T[i, j] < 0
    becomes tight.  The new basis has |det| the old one's times T[i, j], so
    a pivot entry of -1 keeps every basis unimodular.  With no tie in any
    ratio test no vertex lies on more than n facets, so the walk meets every
    edge: the vertex graph is connected (Balinski), and if the polytope
    were unbounded an extreme ray of its recession cone would leave some
    vertex as an unbounded edge."""
    start = _start_vertex(P, lam, lam_den)
    if start is None:
        return None
    basis, (inverse, _, _) = start
    if any(x.denominator != 1 for row in inverse for x in row):
        return None
    n, N = P.n, P.num_facets
    # [nu; I] maps a direction to its slack changes over itself
    stacked = P.normals + linalg.identity(QQ, n)
    point = linalg.mat_vec(QQ, inverse, [-lam[i] for i in basis])
    vec = [x + l for x, l in zip(linalg.mat_vec(QQ, stacked, point), lam + [0] * n)]
    if vec[:N].count(0) > n:
        return None
    todo = [(basis, linalg.transpose(linalg.mat_mul(QQ, stacked, inverse)), vec)]
    seen = {frozenset(basis)}
    points = {}
    while todo:
        basis, cols, vec = todo.pop()
        points[tuple(vec[N:])] = sorted(basis)
        for j, col in enumerate(cols):
            # the least slack / -T[i, j]: s_i / -t < s_l / -t_l iff s_i t_l > s_l t
            leave, tie = None, False
            for i, t in zip(range(N), col):
                if t < 0:
                    c = 1 if leave is None else vec[i] * col[leave] - vec[leave] * t
                    if c > 0:
                        leave, tie = i, False
                    elif c == 0:
                        tie = True
            if leave is None or tie or col[leave] != -1:
                return None
            nxt = basis[:j] + [leave] + basis[j + 1:]
            if frozenset(nxt) in seen:
                continue
            seen.add(frozenset(nxt))
            # pivot on T[leave, j] = -1: d_j -> -d_j, d_k -> d_k + T[leave, k] d_j
            pivoted = [[x + c[leave] * y for x, y in zip(c, col)] for c in cols]
            pivoted[j] = [-x for x in col]
            todo.append((nxt, pivoted, [x + vec[leave] * y for x, y in zip(vec, col)]))
    order = sorted(points)
    return VertexData(vertices=[[x // lam_den if x % lam_den == 0 else Fraction(x, lam_den)
                                 for x in pt] for pt in order],
                      incidence=[points[pt] for pt in order])


def _enumerate_vertices(P, lam, lam_den):
    """The VertexData by enumeration, raising the first failed check: one
    kernel per (n-1)-subset of facets for the recession cone, then one
    inverse per n-subset for the vertices."""
    n, N = P.n, P.num_facets
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
        scaled = clear_denominators(ray)[0]
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

    # a vertex keeps the inverse of its facet normals for the unimodularity
    # check
    points = {}
    for subset in itertools.combinations(range(N), n):
        found = _subset_vertex(P, subset, lam, lam_den)
        if found is not None and min(found[2]) >= 0:
            inverse, sol, slack = found
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
    """Minimal facet subsets with empty common intersection, by size and
    then lexicographically.

    A subset meets iff it sits inside some vertex's incidence set, that is
    iff it is a face of the fan (the empty set included).  So a primitive
    collection J is a subset that is no face while every J - {i} is one.
    Each is built once, as F | {j} for the face F = J - {max J}, so only
    the faces and one candidate per face and larger facet are visited.
    """
    faces = {frozenset()}
    faces.update(frozenset(F) for on in V.incidence
                 for r in range(1, len(on) + 1) for F in itertools.combinations(on, r))
    found = [J for F in faces for j in range(max(F, default=-1) + 1, num_facets)
             if (J := F | {j}) not in faces and all(J - {i} in faces for i in F)]
    return sorted((sorted(J) for J in found), key=lambda J: (len(J), J))


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
