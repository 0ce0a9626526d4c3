"""Sign-convention laboratory on finite-dimensional Z/2-graded structures.

The shipped corpus (exterior algebras, the upper-triangular dga, a 3-dim
commutative dga with nonzero differential) exercises every sign the chain
arguments rely on: the opposite twist, the Hochschild differential for
bimodule coefficients, the endomorphism bimodule, and the boundary-class map
theta with its length-zero evaluation Pi."""

import itertools

from floergen.ainfty import (
    ainfty_residuals,
    check_bimodule_relations,
    cohomology,
    diagonal_bimodule,
    hochschild_diff,
    hom_bimodule,
    load_example,
    opposite,
    pi_map,
    self_module,
    theta_map,
)

for name in ("lambda_x", "lambda_xy", "triangular", "dga3"):
    A = load_example(name)
    print(f"{name}: dim {A.dim}, degrees {A.degrees}")
    print("  relations up to arity 4:", "ok" if not ainfty_residuals(A, 4) else "FAIL")
    print("  opposite involutive:", opposite(opposite(A)).ops == A.ops)
    fixed = opposite(A).ops == A.ops
    print("  fixed by opposite (graded-commutative):", fixed)
    H = cohomology(A)
    Hop = cohomology(opposite(A))
    print("  H(A^op) = H(A)^op with Koszul signs:",
          Hop.basis_mult == H.graded_opposite().basis_mult)
    diag = diagonal_bimodule(A)
    print("  diagonal bimodule coherent:", check_bimodule_relations(diag, cap=2))
    if A.unit is None:
        print()
        continue
    M = self_module(A)
    P = hom_bimodule(M, M)
    chain_ok = True
    pi_ok = True
    F = A.field
    for c_idx in range(A.dim):
        c = [F.one if i == c_idx else F.zero for i in range(A.dim)]
        th = theta_map(A, c, cap=2)
        d = hochschild_diff(A, P, th, cap=2)
        mu1c = A.op(1, (c_idx,))
        dense = [mu1c.get(i, F.zero) for i in range(A.dim)]
        rhs = (theta_map(A, dense, cap=2)
               if any(x != F.zero for x in dense) else None)
        for r in range(d.window() + 1):
            for key in itertools.product(range(A.dim), repeat=r):
                want = rhs.value(r, key) if rhs else {}
                if d.value(r, key) != want:
                    chain_ok = False
        mu2 = A.op(2, (A.unit, c_idx))
        want_vec = [mu2.get(i, F.zero) for i in range(A.dim)]
        if pi_map(A, th) != want_vec:
            pi_ok = False
    print("  theta intertwines the differentials:", chain_ok)
    print("  Pi(theta(c)) = mu^2(e, c) for all basis c:", pi_ok)
    print()
