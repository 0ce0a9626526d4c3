"""Walk through the toric pipeline on CP^2: validate the moment polytope,
read off its cohomology, build the superpotential of the monotone fibre, and
check that the divisor presentation of quantum cohomology matches the
Jacobian ring through the boundary-monomial substitution."""

from fractions import Fraction

from floergen import (
    DelzantPolytope,
    PrimeField,
    QQ,
    c1_element,
    c1_spectrum,
    classical_cohomology,
    co0_map,
    jacobian_ring,
    minimal_chern,
    monotone_normalize,
    projective_space,
    real_cohomology_dims,
    superpotential,
    validate,
)

P = projective_space(2)
V = validate(P)
print(f"{P.name}: {len(V.vertices)} vertices, facet incidence "
      f"{[[i + 1 for i in on] for on in V.incidence]}")
print("minimal Chern number:", minimal_chern(P))

print("classical cohomology over Q: ", classical_cohomology(P, QQ))
print("real locus over F2:          ", real_cohomology_dims(P))

# a translated polytope normalizes back to support constants 1
skew = DelzantPolytope(n=2, normals=[[1, 0], [0, 1], [-1, -1]],
                       lambdas=[Fraction(1), Fraction(1), Fraction(2)])
norm = monotone_normalize(skew)
print("normalization transcript:", norm.normalization)

W = superpotential(P, QQ)
print("superpotential:", W)

jac = jacobian_ring(W)
print("Jacobian ring dim:", jac.dim, "with basis", jac.basis_labels())

for field in (QQ, PrimeField(7)):
    qh, jac_f, mor = co0_map(P, field)
    print(f"closed-open map over {field!r}: well_defined={mor.well_defined} "
          f"kernel_dim={mor.kernel_dim} surjective={mor.surjective}")

jacQ = jacobian_ring(superpotential(P, QQ))
spec = c1_spectrum(jacQ, c1_element("jac", P, QQ, jacQ))
print("c1 char poly over Q:", spec.char_poly)
print("rational eigenvalues:", [(str(r), m) for r, m in spec.factors],
      "residual:", spec.residual)
