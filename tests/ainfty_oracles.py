"""Test-only oracles for the A-infinity layer: a direct endomorphism-bimodule
construction, the classical diagonal-coefficient Hochschild differential, the
module and bimodule relation checks that apply each differential twice, the
gather forms of the Hochschild product and of theta, the triangle-sum
opposite, and the flattening of cochains to coordinate vectors for rank
arguments.  Signs here are field elements (-1)^e multiplied in, the form the
library replaced by negation on parity."""

import itertools

from floergen.ainfty import (
    AInftyStructure,
    BimoduleStructure,
    HochschildCochain,
    Module,
    _vadd,
    hochschild_diff,
    premorphism_diff,
)
from floergen.errors import UsageError


def _sign(field, exponent):
    """(-1)^exponent as a field element."""
    return 1 if exponent % 2 == 0 else field.neg(1)


def end_bimodule_tensors(A: AInftyStructure, k, l):
    """Direct endomorphism-bimodule tensors for comparison tests:
    mu^{0|1|0}(z)(x) = (-1)^{|x|+1}(mu^1(z(x)) - z(mu^1(x))),
    mu^{k|1|0}(a..., z)(x) = (-1)^{|x|+1} mu(a..., z(x)),
    mu^{0|1|l}(z, a...)(x) = (-1)^{|x|} z(mu(a..., x))."""
    F = A.field
    dim = A.dim
    units = [(p, q) for p in range(dim) for q in range(dim)]
    index = {pq: i for i, pq in enumerate(units)}
    out = {}
    for left in itertools.product(range(dim), repeat=k):
        for right in itertools.product(range(dim), repeat=l):
            for zi, (p, q) in enumerate(units):
                val = {}
                if k == 0 and l == 0:
                    for pp, c in A.op(1, (p,)).items():
                        _vadd(F, val, {index[(pp, q)]: c}, _sign(F, A.degrees[q] + 1))
                    for qq in range(dim):
                        c = A.op(1, (qq,)).get(q)
                        if c is not None:
                            _vadd(F, val, {index[(p, qq)]: c}, _sign(F, A.degrees[qq]))
                elif l == 0:
                    for pp, c in A.op(k + 1, tuple(left) + (p,)).items():
                        _vadd(F, val, {index[(pp, q)]: c}, _sign(F, A.degrees[q] + 1))
                elif k == 0:
                    for qq in range(dim):
                        c = A.op(l + 1, tuple(right) + (qq,)).get(q)
                        if c is not None:
                            _vadd(F, val, {index[(p, qq)]: c}, _sign(F, A.degrees[qq]))
                if val:
                    out[(left, zi, right)] = val
    return out


def hochschild_diff_diagonal_direct(A: AInftyStructure, phi: HochschildCochain,
                                    cap: int | None = None) -> HochschildCochain:
    """Independent expansion of the classical diagonal-coefficient formula,
    kept as an oracle against the bimodule specialization."""
    F = A.field
    if cap is None:
        cap = phi.cap
    if cap >= 10**9:
        raise UsageError("pass an explicit length cap for unbounded cochains")
    out = HochschildCochain(
        A, list(A.degrees), (phi.degree + 1) % 2, cap=cap,
        exact_upto=min(phi.window(), cap),
    )
    top = min(cap, out.window())
    for r in range(top + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            total = {}
            for i in range(r + 1):
                for j in range(r - i + 1):
                    mid = key[r - i - j : r - i]
                    phi_val = phi.value(j, mid)
                    if not phi_val:
                        continue
                    malt = sum(A.degrees[t] - 1 for t in key[r - i :]) % 2
                    sgn = _sign(F, (phi.degree + 1) * malt)
                    for b, c in phi_val.items():
                        outer = key[: r - i - j] + (b,) + key[r - i :]
                        _vadd(F, total, A.op(r - j + 1, outer), F.mul(sgn, c))
            for i in range(r + 1):
                for j in range(1, r - i + 1):
                    inner = A.op(j, key[r - i - j : r - i])
                    if not inner:
                        continue
                    malt = sum(A.degrees[t] - 1 for t in key[r - i :]) % 2
                    sgn = _sign(F, phi.degree + malt)
                    for b, c in inner.items():
                        new_key = key[: r - i - j] + (b,) + key[r - i :]
                        val = phi.value(r - j + 1, new_key)
                        if val:
                            _vadd(F, total, val, F.mul(sgn, c))
            out.set_value(r, key, total)
    return out


# --- relation checks by squaring (oracles for the memoized checks) -------------


def check_module_relations_direct(M: Module, cap: int = 2) -> bool:
    """Square the premorphism differential on elementary premorphisms."""
    A = M.algebra
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            for mi in range(M.dim):
                for mo in range(M.dim):
                    psi = {r: {(key, mi): {mo: A.field.one}}}
                    deg = (M.degrees[mo] + M.degrees[mi] + sum(
                        A.degrees[t] - 1 for t in key
                    )) % 2
                    once = premorphism_diff(M, M, psi, deg, cap)
                    twice = premorphism_diff(M, M, once, (deg + 1) % 2, cap)
                    # component rr only reads inputs of index <= rr, so the
                    # whole computed range is exact
                    for tensor in twice.values():
                        for val in tensor.values():
                            if val:
                                return False
    return True


def check_bimodule_relations_direct(P: BimoduleStructure, cap: int = 3) -> bool:
    """Square the Hochschild differential on elementary cochains; linearity
    makes this a complete check within the window."""
    A = P.algebra
    F = A.field
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            for p in range(P.dim):
                phi = HochschildCochain(A, list(P.degrees), 0, cap=cap)
                deg = (P.degrees[p] + sum(A.degrees[t] - 1 for t in key)) % 2
                phi.degree = deg
                phi.set_value(r, key, {p: F.one})
                once = hochschild_diff(A, P, phi)
                twice = hochschild_diff(A, P, once)
                if not twice.is_zero_within(twice.window()):
                    return False
    return True


# --- gather forms of the product, theta and the opposite -----------------------


def hochschild_prod_gather(A: AInftyStructure, psi: HochschildCochain,
                           phi: HochschildCochain, cap=None) -> HochschildCochain:
    """hochschild_prod by visiting every output key up to the window and
    every split of it around psi's and phi's inputs."""
    F = A.field
    win = min(psi.window(), phi.window())
    if cap is None:
        cap = min(psi.cap, phi.cap)
    if cap >= 10**9:
        raise UsageError("pass an explicit length cap for unbounded cochains")
    out = HochschildCochain(
        A, list(A.degrees), (psi.degree + phi.degree) % 2,
        cap=cap,
        exact_upto=min(win, cap),
    )
    top = out.window()
    for r in range(top + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            total = {}
            for i in range(r + 1):
                for j in range(r - i + 1):
                    for l in range(i + j, r + 1):
                        for m in range(r - l + 1):
                            phi_val = phi.value(j, key[r - i - j : r - i])
                            if not phi_val:
                                continue
                            psi_val = psi.value(m, key[r - l - m : r - l])
                            if not psi_val:
                                continue
                            sgn = _sign(
                                F,
                                (psi.degree + 1) * A.maltese(key[r - l :])
                                + (phi.degree + 1) * A.maltese(key[r - i :]),
                            )
                            for b1, c1 in phi_val.items():
                                for b2, c2 in psi_val.items():
                                    outer = (
                                        key[: r - l - m]
                                        + (b2,)
                                        + key[r - l : r - i - j]
                                        + (b1,)
                                        + key[r - i :]
                                    )
                                    coeff = F.mul(sgn, F.mul(c1, c2))
                                    _vadd(
                                        F, total,
                                        A.op(r - j - m + 2, outer), coeff,
                                    )
            out.set_value(r, key, total)
    return out


def theta_map_gather(A: AInftyStructure, c_coords, cap: int) -> HochschildCochain:
    """theta_map by visiting every key up to the cap and every x."""
    F = A.field
    dim = A.dim
    val0 = {i: c for i, c in enumerate(c_coords) if c != F.zero}
    degs = {A.degrees[i] for i in val0}
    if len(degs) > 1:
        raise UsageError("theta needs a homogeneous element")
    c_deg = degs.pop() if degs else 0
    units = [(p, q) for p in range(dim) for q in range(dim)]
    index = {pq: i for i, pq in enumerate(units)}
    unit_degrees = [(A.degrees[p] + A.degrees[q]) % 2 for p, q in units]
    out = HochschildCochain(A, unit_degrees, c_deg, cap=cap)
    for k in range(cap + 1):
        for key in itertools.product(range(dim), repeat=k):
            val = {}
            for x in range(dim):
                sgn = _sign(F, c_deg * (A.degrees[x] + 1))
                for ci, cc in val0.items():
                    res = A.op(k + 2, tuple(key) + (x, ci))
                    for p, c in res.items():
                        _vadd(F, val, {index[(p, x)]: c}, F.mul(sgn, cc))
            out.set_value(k, key, val)
    return out


def opposite_triangle(A: AInftyStructure) -> AInftyStructure:
    """The opposite with its sign (-1)^{triangle_l + l - 1} summed pair by
    pair, triangle_l = sum_{s<t} (|c_s|-1)(|c_t|-1)."""
    F = A.field
    ops = {}
    for l, tensor in A.ops.items():
        new = {}
        for key, out in tensor.items():
            degs = [A.degrees[i] for i in key]
            tri = 0
            for s in range(len(degs)):
                for t in range(s + 1, len(degs)):
                    tri += (degs[s] - 1) * (degs[t] - 1)
            sgn = _sign(F, tri + l - 1)
            entry = {i: F.mul(sgn, c) for i, c in out.items()}
            if entry:
                new[tuple(reversed(key))] = entry
        if new:
            ops[l] = new
    return AInftyStructure(
        field=F, degrees=list(A.degrees), arity_cap=A.arity_cap, ops=ops,
        unit=A.unit, labels=list(A.labels),
    )


# --- cochain linearization (rank arguments) ------------------------------------


def cochain_coordinates(A: AInftyStructure, coeff_dim: int, cap: int):
    coords = []
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            for p in range(coeff_dim):
                coords.append((r, key, p))
    return coords


def flatten_cochain(phi: HochschildCochain, coords):
    F = phi.algebra.field
    out = []
    for r, key, p in coords:
        out.append(phi.value(r, key).get(p, F.zero))
    return out
