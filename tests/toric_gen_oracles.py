"""Reference versions of the toric-gen summand stage and of polytope
validation, kept as test oracles for the faster code in `src/`.

- `pool_first_decompose`: the local decomposition that scans the pool
  (generators, then basis vectors) of every block for a splitting minimal
  polynomial before it counts the block's local factors, with its own
  Frobenius-fixed fallback, finalizer and CRT splitter (an iterated Bezout
  chain, evaluated by Horner's rule on the dense multiplication matrix of
  the element, so it shares no product path with `split_along`).
- `rational_summands_by_blocks`: the rational summands split along the
  characteristic polynomial of c1 and read from restricted blocks, a point
  being the roots of degree-1 generator minimal polynomials.
- `restrict_by_solving`: the block on e*A with one `linalg.solve` for the
  coordinates of each product; both oracles above restrict through it.
- `validate_by_fractions`: Delzant validation with every sign test on
  Fraction vectors.
- `h2_lattice_by_tracker`: the sphere-class lattice by column operations on
  the n x N matrix of normals, repeated on an N x N tracker matrix whose
  cleared columns are the basis.
- `primitive_collections_by_subsets`: the primitive collections by trying
  every facet subset, by size, against every incidence set.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce

from floergen import linalg
from floergen.algebra import (
    FiniteAlgebra,
    LocalFactor,
    _ext_gcd,
    _require_char_p,
    frobenius_matrix_of,
    krylov_min_poly,
    radical_char_p,
    sparse,
)
from floergen.errors import DomainError, ValidationError
from floergen.quantum import GenerationSummand
from floergen.scalar import (DEFAULT_SEED, QQ, UniPoly, rational_roots, strip_roots,
                             univariate_factor)
from floergen.toric import DelzantPolytope, H2Lattice, VertexData


def restrict_by_solving(A, idempotent):
    """(block, basis, coords) on e*A: the basis is the column-space basis of
    the multiplication matrix of e, and coords(v) solves for the coordinates
    of a vector v of e*A, one `linalg.solve` per product and generator."""
    F = A.field
    basis = linalg.image_basis(F, A.mult_matrix(idempotent))
    bmat = linalg.transpose(basis)

    def coords(v):
        return linalg.solve(F, bmat, v)

    block = FiniteAlgebra(
        field=F,
        basis_mult=[[sparse(coords(A.mult(b, c))) for c in basis] for b in basis],
        unit=coords(idempotent),
        generators=[coords(A.mult(idempotent, g)) for g in A.generators],
    )
    return block, basis, coords


def _split_along(A, idempotent, elem, factors):
    F = A.field
    qs = [reduce(UniPoly.__mul__, [f] * m) for f, m in factors]
    mu = reduce(UniPoly.__mul__, qs)
    cof = [mu // q for q in qs]
    combo = [UniPoly(F, [F.one])] + [UniPoly(F, [])] * (len(cof) - 1)
    g = cof[0]
    for i in range(1, len(cof)):
        g, (s, t) = _ext_gcd(g, cof[i])
        combo = [c * s for c in combo]
        combo[i] = t
    scale = F.inv(g.coeffs[0])
    m = A.mult_matrix(elem)

    def horner(poly, v):
        acc = [F.zero] * len(v)
        for c in reversed(poly.coeffs):
            acc = [F.add(x, F.mul(c, y)) for x, y in zip(linalg.mat_vec(F, m, acc), v)]
        return acc

    return [horner((u * q % mu).scale(scale), idempotent) for u, q in zip(combo, cof)]


def _frobenius_fixed_split_candidates(block):
    F = block.field
    frob = frobenius_matrix_of(block)
    rad = radical_char_p(block)
    n = block.dim
    fmi = linalg.mat_sub(F, frob, linalg.identity(F, n))
    if not rad:
        fixed = linalg.kernel_basis(F, fmi)
        return fixed, len(fixed)
    aug_cols = linalg.transpose(fmi) + [[F.neg(x) for x in r] for r in rad]
    big = linalg.transpose(aug_cols)
    ker = linalg.kernel_basis(F, big)
    fixed = []
    for v in ker:
        fixed.append(v[:n])
    stacked = fixed + rad
    r_count = linalg.rank(F, stacked) - linalg.rank(F, rad)
    return fixed, r_count


def _finalize_factor(e, block, seed):
    rad = radical_char_p(block)
    residue_degree = block.dim - len(rad)
    point = None
    if residue_degree == 1 and block.generators:
        point = []
        for g in block.generators:
            roots = [
                f.coeffs[0]
                for f, _ in univariate_factor(krylov_min_poly(block, g, block.unit), seed)
                if f.degree == 1
            ]
            point.append(block.field.neg(roots[0]))
    return LocalFactor(
        idempotent=e,
        algebra=block,
        maximal_ideal=rad,
        point=point,
    )


def pool_first_decompose(A, seed=DEFAULT_SEED):
    _require_char_p(A)
    if A.dim == 0:
        return []
    F = A.field
    pool = list(A.generators) + [
        [F.one if k == j else F.zero for k in range(A.dim)] for j in range(A.dim)
    ]
    pending = [A.unit]
    finished = []
    while pending:
        e = pending.pop()
        block, basis, coords = restrict_by_solving(A, e)
        split = None
        for elem in pool:
            restricted = A.mult(e, elem)
            restricted_mp = krylov_min_poly(block, coords(restricted), block.unit)
            factors = univariate_factor(restricted_mp, seed)
            if len(factors) > 1:
                split = _split_along(A, e, restricted, factors)
                break
        if split is None:
            fixed, n_factors = _frobenius_fixed_split_candidates(block)
            if n_factors > 1:
                for v in fixed:
                    factors = univariate_factor(krylov_min_poly(block, v, block.unit), seed)
                    if len(factors) > 1:
                        lifted = linalg.mat_vec(F, linalg.transpose(basis), v)
                        split = _split_along(A, e, lifted, factors)
                        break
        if split is None:
            finished.append(_finalize_factor(e, block, seed))
        else:
            pending.extend(split)
    finished.sort(key=lambda lf: (lf.dim, lf.residue_degree, tuple(lf.idempotent)))
    return finished


def rational_summands_by_blocks(W, jac):
    F = jac.field
    A = jac.finite_algebra()
    c1 = jac.nf_coords(W)
    chi = linalg.charpoly(F, A.mult_matrix(c1))
    factors, residual = strip_roots(chi, [lam for lam, _ in rational_roots(chi)])
    if residual.degree > 0:
        factors.append((residual, 1))
    out = []
    for (f, _), e in zip(factors, _split_along(A, A.unit, c1, factors)):
        if f is residual:
            out.append(GenerationSummand.nonsplit(
                linalg.rank(F, A.mult_matrix(e)), 0,
                "complementary summand for the irrational part of the "
                "first-Chern-class spectrum; no rational critical local system"))
            continue
        block, _, _ = restrict_by_solving(A, e)
        mps = [krylov_min_poly(block, g, block.unit) for g in block.generators]
        point = [F.neg(mp.coeffs[0]) for mp in mps]
        if any(mp.degree != 1 for mp in mps) or any(
            W.log_derivative(i).evaluate(point) != F.zero for i in range(W.ring.nvars)
        ):
            point = None
        out.append(GenerationSummand.split(block.dim, 1, point, F.neg(f.coeffs[0])))
    return out


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def validate_by_fractions(P):
    n, N = P.n, P.num_facets
    if N < n + 1:
        raise ValidationError("facet_count", f"need at least {n + 1} facets, got {N}")
    if linalg.rank(QQ, [[Fraction(x) for x in row] for row in P.normals]) < n:
        raise ValidationError(
            "compactness", "facet normals do not span; polytope is unbounded"
        )
    if n == 1:
        for d in ([Fraction(1)], [Fraction(-1)]):
            if all(_dot(P.normals[i], d) >= 0 for i in range(N)):
                raise ValidationError(
                    "compactness", f"unbounded along recession ray {d}"
                )
    for subset in itertools.combinations(range(N), max(n - 1, 1)):
        mat = [[Fraction(x) for x in P.normals[i]] for i in subset]
        ker = linalg.kernel_basis(QQ, mat)
        if len(ker) != 1:
            continue
        ray = ker[0]
        for cand in (ray, [-x for x in ray]):
            if all(_dot(P.normals[i], cand) >= 0 for i in range(N)):
                raise ValidationError(
                    "compactness",
                    f"unbounded along recession ray {cand} (facets {sorted(subset)})",
                    facets=sorted(i + 1 for i in subset),
                )
    points = {}
    for subset in itertools.combinations(range(N), n):
        mat = [[Fraction(x) for x in P.normals[i]] for i in subset]
        inverse = linalg.invert(QQ, mat)
        if inverse is None:
            continue
        sol = linalg.mat_vec(QQ, inverse, [-P.lambdas[i] for i in subset])
        if any(_dot(P.normals[i], sol) < -P.lambdas[i] for i in range(N)):
            continue
        points[tuple(sol)] = inverse
    vertices = []
    incidence = []
    for pt in sorted(points):
        on = [i for i in range(N) if _dot(P.normals[i], pt) == -P.lambdas[i]]
        if len(on) > n:
            raise ValidationError(
                "simplicity",
                f"point ({', '.join(str(x) for x in pt)}) lies on facets "
                f"{[i + 1 for i in on]}",
                facets=[i + 1 for i in on],
                vertex=[str(x) for x in pt],
            )
        vertices.append(list(pt))
        incidence.append(on)
    if not vertices:
        raise ValidationError("nonempty", "no vertices found; polytope empty")
    for pt, on in zip(vertices, incidence):
        if any(x.denominator != 1 for row in points[tuple(pt)] for x in row):
            mat = [[Fraction(x) for x in P.normals[i]] for i in on]
            det = linalg.charpoly(QQ, mat).coeffs[0]
            raise ValidationError(
                "unimodularity",
                f"facets {[i + 1 for i in on]} meet at "
                f"({', '.join(str(x) for x in pt)}) with |det| = {abs(det)}",
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
    k = len(vertices)
    bary = [sum(v[j] for v in vertices) / k for j in range(P.n)]
    for i in range(N):
        if _dot(P.normals[i], bary) <= -P.lambdas[i]:
            raise ValidationError(
                "full_dimension",
                f"polytope has empty interior (tight at facet {i + 1})",
                facets=[i + 1],
            )
    return VertexData(vertices=vertices, incidence=incidence)


def h2_lattice_by_tracker(P: DelzantPolytope) -> H2Lattice:
    """Integral basis of {p : sum_j p_j nu_j = 0} via unimodular column ops."""
    N, n = P.num_facets, P.n
    # columns of `m` are the normals' coordinates per facet; reduce columns
    m = [[P.normals[j][i] for j in range(N)] for i in range(n)]  # n x N
    tracker = [[1 if i == j else 0 for j in range(N)] for i in range(N)]  # N x N cols

    def col(mat, j):
        return [mat[i][j] for i in range(len(mat))]

    def addmul_col(mat, dst, src, q):
        for i in range(len(mat)):
            mat[i][dst] += q * mat[i][src]

    def swap_col(mat, a, b):
        for i in range(len(mat)):
            mat[i][a], mat[i][b] = mat[i][b], mat[i][a]

    row = 0
    fixed = 0
    while row < n and fixed < N:
        while True:
            nz = [j for j in range(fixed, N) if m[row][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(m[row][j]))
            if j0 != fixed:
                swap_col(m, fixed, j0)
                swap_col(tracker, fixed, j0)
            done = True
            for j in range(fixed + 1, N):
                if m[row][j] != 0:
                    q = -(m[row][j] // m[row][fixed])
                    addmul_col(m, j, fixed, q)
                    addmul_col(tracker, j, fixed, q)
                    if m[row][j] != 0:
                        done = False
            if done:
                break
        if m[row][fixed] != 0:
            fixed += 1
        row += 1
    basis = []
    for j in range(fixed, N):
        if all(m[i][j] == 0 for i in range(n)):
            basis.append(col(tracker, j))
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


def primitive_collections_by_subsets(V: VertexData, num_facets: int):
    """Minimal facet subsets contained in no incidence set, from all 2^N
    subsets in `itertools.combinations` order, size by size."""
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
