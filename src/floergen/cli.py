"""Command-line surface.

Exit codes: 0 success, 1 invalid input (with the failed check named) or a
closed stdout, 2 resource budget exhausted, 3 anomaly (a theorem-level
invariant failed on in-contract input).  Polytope-consuming commands
normalize the polytope first (idempotent on already-normalized input) and
embed the transcript in the report.  All randomness is seeded; the reports
that use it embed the seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import scalar
from .ainfty import AInftyStructure, ainfty_residuals, opposite
from .errors import (
    AnomalyError,
    DomainError,
    NotMonotoneError,
    ResourceBudgetError,
    UsageError,
    ValidationError,
)
from .grobner import DEFAULT_BUDGET, Budget
from .laurent import laurent_from_json
from .quantum import (
    c1_spectrum,
    co0_map,
    cohomology_dims,
    critical_points,
    jacobian_ring,
    qh_presentation,
    s_mod_m2,
    toric_generation_report,
)
from .realgen import real_generation_report
from .scalar import PrimeField, field_name, parse_field
from .toric import DelzantPolytope, monotone_normalize, superpotential, validate

def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    # not UTF-8, not JSON, an int past Python's digit limit, or nested too deep
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _polytope(args) -> DelzantPolytope:
    if not args.polytope:
        raise UsageError("this subcommand needs --polytope PATH")
    return DelzantPolytope.from_json(_load_json(args.polytope))


def _normalized_polytope(args) -> DelzantPolytope:
    return monotone_normalize(_polytope(args))


def _superpotential_input(args, field):
    """Either an explicit Laurent JSON or the polytope's superpotential."""
    if args.superpotential:
        return laurent_from_json(_load_json(args.superpotential), field)
    if args.polytope:
        return superpotential(_normalized_polytope(args), field)
    raise UsageError("this subcommand needs --superpotential or --polytope")


def _budget(args) -> Budget:
    return Budget(args.budget)


def _render_text(data, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for k in data:
            v = data[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(data)}")
    return "\n".join(lines)


def _scalar_text(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _cmd_validate(args):
    P = _polytope(args)
    V = validate(P)
    return 0, {
        "command": "validate",
        "input": P.name or args.polytope,
        "valid": True,
        "vertices": [[str(x) for x in v] for v in V.vertices],
        "facet_incidence": [[i + 1 for i in on] for on in V.incidence],
    }


def _cmd_cohomology(args):
    P = _polytope(args)
    field = parse_field(args.field)
    budget = _budget(args)  # one budget for both quotients
    classical, real = cohomology_dims(P, [field, PrimeField(2)], budget)
    return 0, {
        "command": "cohomology",
        "input": P.name or args.polytope,
        "field": field_name(field),
        "classical_graded_dims": classical,
        "real_locus_dims_F2": real,
        "total": sum(classical),
    }


def _cmd_superpotential(args):
    P = _normalized_polytope(args)
    field = parse_field(args.field)
    W = superpotential(P, field)
    return 0, {
        "command": "superpotential",
        "input": P.name or args.polytope,
        "normalization": P.normalization,
        "superpotential": W.to_json(),
    }


def _cmd_jac(args):
    field = parse_field(args.field)
    W = _superpotential_input(args, field)
    qa = jacobian_ring(W, _budget(args))
    report = {
        "command": "jac",
        "field": field_name(field),
        "superpotential": W.to_json(),
        "presentation": qa.to_json(),
    }
    return 0, report


def _cmd_qh(args):
    P = _normalized_polytope(args)
    field = parse_field(args.field)
    qh = qh_presentation(P, field, "plain", _budget(args))
    return 0, {
        "command": "qh",
        "input": P.name or args.polytope,
        "field": field_name(field),
        "variant": "plain",
        "presentation": qh.to_json(),
    }


def _cmd_co0(args):
    P = _normalized_polytope(args)
    field = parse_field(args.field)
    qh, jac, mor = co0_map(P, field, _budget(args))
    code = 0
    anomaly = not mor.is_isomorphism
    if anomaly:
        code = 3
    return code, {
        "command": "co0",
        "input": P.name or args.polytope,
        "field": field_name(field),
        "qh_dim": qh.dim,
        "jac_dim": jac.dim,
        "co0": mor.to_json(),
        "isomorphism": not anomaly,
    }


def _cmd_spectrum(args):
    field = parse_field(args.field)
    W = _superpotential_input(args, field)
    qa = jacobian_ring(W, _budget(args))
    if not qa.finite:
        raise UsageError("Jacobian ring is infinite-dimensional")
    c1 = qa.nf_coords(W)
    spec = c1_spectrum(qa, c1, seed=args.seed)
    return 0, {
        "command": "spectrum",
        "field": field_name(field),
        "seed": args.seed,
        "dim": qa.dim,
        "spectrum": spec.to_json(),
    }


def _cmd_decompose(args):
    field = parse_field(args.field)
    if field.char == 0:
        raise UsageError("decompose runs over a prime field; pass --field F<p>")
    W = _superpotential_input(args, field)
    cp = critical_points(W, _budget(args), args.seed)
    return 0, {
        "command": "decompose",
        "field": field_name(field),
        "seed": args.seed,
        "dim": cp.algebra.dim,
        "points": [[field.to_str(x) for x in pt] for pt in sorted(cp.points)],
        "factors": [
            {"dim": f.dim, "residue_degree": f.residue_degree,
             "point": [field.to_str(x) for x in f.point] if f.point else None}
            for f in cp.factors
        ],
    }


def _cmd_toric_gen(args):
    P = _normalized_polytope(args)
    field = parse_field(args.field)
    report = toric_generation_report(P, field, _budget(args), args.seed)
    data = report.to_json()
    data["command"] = "toric-gen"
    data["seed"] = args.seed
    return (3 if report.anomaly else 0), data


def _cmd_real_gen(args):
    P = _normalized_polytope(args)
    report = real_generation_report(P, _budget(args))
    data = report.to_json()
    data["command"] = "real-gen"
    return (3 if report.anomaly else 0), data


def _cmd_smod2(args):
    field = parse_field(args.field)
    if not args.rho:
        raise UsageError("smod2 needs --rho with comma-separated field elements")
    rho = [field.from_str(x.strip()) for x in args.rho.split(",")]
    qa, checks = s_mod_m2(len(rho), rho, field, _budget(args))
    return 0, {
        "command": "smod2",
        "field": field_name(field),
        "rho": [field.to_str(x) for x in rho],
        "dim": qa.dim if qa.finite else None,
        "checks": checks,
    }


def _cmd_ainfty_check(args):
    if not args.ainfty:
        raise UsageError("ainfty-check needs --ainfty PATH")
    A = AInftyStructure.from_json(_load_json(args.ainfty))
    fails = ainfty_residuals(A, args.arity)
    involutive = opposite(opposite(A)).ops == A.ops
    return 0, {
        "command": "ainfty-check",
        "input": args.ainfty,
        "dim": A.dim,
        "arity_checked": args.arity,
        "relations_hold": not fails,
        "failures": [
            {"arity": k, "inputs": list(key),
             "residual": {str(i): A.field.to_str(c) for i, c in sorted(out.items())}}
            for k, key, out in fails
        ],
        "opposite_involutive": involutive,
    }


_HANDLERS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "superpotential": _cmd_superpotential,
    "jac": _cmd_jac,
    "qh": _cmd_qh,
    "co0": _cmd_co0,
    "spectrum": _cmd_spectrum,
    "decompose": _cmd_decompose,
    "toric-gen": _cmd_toric_gen,
    "real-gen": _cmd_real_gen,
    "smod2": _cmd_smod2,
    "ainfty-check": _cmd_ainfty_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floergen",
        description="Exact toric quantum cohomology, Jacobian rings, "
        "split-generation verdicts, and A-infinity sign checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--polytope", help="polytope JSON path")
        p.add_argument("--superpotential", help="Laurent polynomial JSON path")
        p.add_argument("--ainfty", help="A-infinity structure JSON path")
        p.add_argument("--field", default="Q", help="Q or F<p> (default Q)")
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="reduction step budget (default 1000000)")
        p.add_argument("--seed", type=int, default=scalar.DEFAULT_SEED,
                       help="seed for factorization randomness")
        if name == "smod2":
            p.add_argument("--rho", help="comma-separated local system values")
        if name == "ainfty-check":
            p.add_argument("--arity", type=int, default=4,
                           help="verify relations up to this arity")
    return parser


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        code, report = _HANDLERS[args.subcommand](args)
    except (UsageError, DomainError, NotMonotoneError) as exc:
        _emit_error(args, type(exc).__name__, str(exc))
        return 1
    except ValidationError as exc:
        _emit_error(args, f"validation:{exc.check}", str(exc),
                    facets=exc.facets, vertex=exc.vertex)
        return 1
    except ResourceBudgetError as exc:
        _emit_error(args, "budget", str(exc), steps=exc.steps,
                    basis_size=exc.basis_size)
        return 2
    except AnomalyError as exc:
        _emit_error(args, "anomaly", str(exc))
        return 3
    if args.format == "json":
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(_render_text(report))
    return code


def _emit_error(args, kind, message, **extra):
    data = {"error": kind, "message": message}
    data.update({k: v for k, v in extra.items() if v is not None})
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        print(f"error[{kind}]: {message}", file=sys.stderr)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot fail again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
