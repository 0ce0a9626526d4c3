"""The polytope ladder and its seeded reparametrisation.

Each rung is written down here from its facet normals, independently of
floergen's own corpus builders, together with facts that follow from the
geometry alone: the number of vertices (= dim QH = dim Jac) and the number of
facets N and dimension n (so dim QH_R = 2^(N-n) dim QH).

A seed reparametrises a rung by shuffling its facets and applying a signed
permutation of the lattice coordinates.  Both moves are lattice automorphisms
followed by relabelling, so the polytope stays Delzant and monotone with every
support constant 1; they change the variable order the Groebner layer sees and
nothing the benchmark checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _simplex(n):
    return [[1 if i == j else 0 for i in range(n)] for j in range(n)] + [[-1] * n]


def _product(*factors):
    total = sum(len(f[0]) for f in factors)
    normals = []
    offset = 0
    for f in factors:
        k = len(f[0])
        for nu in f:
            normals.append([0] * offset + list(nu) + [0] * (total - offset - k))
        offset += k
    return normals


# name -> (facet normals, number of vertices)
LADDER = {
    "CP1": (_simplex(1), 2),
    "CP2": (_simplex(2), 3),
    "CP3": (_simplex(3), 4),
    "CP4": (_simplex(4), 5),
    "CP5": (_simplex(5), 6),
    "CP1xCP1": (_product(_simplex(1), _simplex(1)), 4),
    "CP1^3": (_product(*[_simplex(1)] * 3), 8),
    "CP2xCP1": (_product(_simplex(2), _simplex(1)), 6),
    "dP6": ([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]], 6),
    "CP1^4": (_product(*[_simplex(1)] * 4), 16),
    "CP2xCP2": (_product(_simplex(2), _simplex(2)), 9),
}


@dataclass(frozen=True)
class Rung:
    name: str
    normals: tuple  # facet normals after reparametrisation
    vertices: int

    @property
    def dim(self):
        return len(self.normals[0])

    @property
    def facets(self):
        return len(self.normals)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "normals": [list(nu) for nu in self.normals],
            "lambda": ["1"] * self.facets,
        }


def reparametrise(name: str, seed: int) -> Rung:
    """Facet shuffle plus signed coordinate permutation, fixed by (seed, name)."""
    normals, vertices = LADDER[name]
    rng = random.Random(f"floergen-bench:{seed}:{name}")
    n = len(normals[0])
    order = list(range(len(normals)))
    rng.shuffle(order)
    coords = list(range(n))
    rng.shuffle(coords)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    moved = tuple(
        tuple(signs[i] * normals[j][coords[i]] for i in range(n)) for j in order
    )
    return Rung(name, moved, vertices)


def check_rung(rung: Rung, toric) -> None:
    """Refuse a generated polytope that is not Delzant, monotone and of the
    expected size; `toric` is floergen's public toric module."""
    P = toric.DelzantPolytope.from_json(rung.to_json())
    found = len(toric.validate(P).vertices)
    if found != rung.vertices:
        raise ValueError(f"{rung.name}: {found} vertices, expected {rung.vertices}")
    # raises NotMonotoneError unless one translation equalizes the supports;
    # an already-normalized polytope needs none
    if toric.monotone_normalize(P).normalization["scale"] != "1":
        raise ValueError(f"{rung.name}: generated polytope is not normalized")
