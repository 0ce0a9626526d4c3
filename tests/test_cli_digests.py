"""Every CLI report stays byte-identical to the digests in data/cli_digests.json.

Each digest is the SHA-256 of one invocation's exit code, stdout and stderr,
run in-process from the checkout root so input paths print as recorded.
A refactor that changes no behaviour leaves every digest as it is; a change
that is meant to alter a report must update the digest file with it.
"""

import hashlib
import json
import pathlib

from floergen.cli import run

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"

POLYTOPE_COMMANDS = ("validate", "cohomology", "superpotential", "jac", "qh",
                     "co0", "spectrum", "decompose", "toric-gen", "real-gen")
TEXT_COMMANDS = ("toric-gen", "real-gen")
FIELDS = ("Q", "F2", "F7")
# the largest real loci, kept out of demos/data so the matrix above stays small
REAL_GEN_PINS = {"tests/data/dp6.json": (6, 96), "tests/data/dp6xcp1.json": (12, 384),
                 "tests/data/cp1x6.json": (64, 4096)}
# toric-gen on the same polytopes: over Q, dP6 x CP1 splits into six
# summands with multiplicities 2 and 3
TORIC_GEN_PIN_FIELDS = ("Q", "F7")
# the text reports of the minimal-Chern-1 branches on dP6: the inapplicable
# real-locus summand, and the toric summands over Q and F7; JSON sorts its
# keys, so only the text rendering pins their key order
MIN_CHERN_1_TEXT_PINS = (
    ["real-gen", "--polytope", "tests/data/dp6.json", "--field", "F2"],
    ["toric-gen", "--polytope", "tests/data/dp6.json", "--field", "Q"],
    ["toric-gen", "--polytope", "tests/data/dp6.json", "--field", "F7"],
)
# toric-gen over Q on CP1^7 (dim 128): c1 is semisimple there, so its
# minimal polynomial has degree 8 while its characteristic polynomial has
# degree 128 with root multiplicities up to 35
SEMISIMPLE_Q_PIN = ["toric-gen", "--polytope", "tests/data/cp1x7.json", "--field", "Q",
                    "--format", "json"]
# toric-gen over F7 on CP1^7: 128 local factors, each a line F_7 e whose
# idempotent has all 128 coordinates nonzero, so every block restriction
# runs on a full 128 x 128 multiplication matrix
LINE_LEAVES_F7_PIN = ["toric-gen", "--polytope", "tests/data/cp1x7.json", "--field", "F7",
                      "--format", "json"]
# toric-gen over Q on CP2^3: charpoly(c1) is t^6 times a polynomial with
# constant term -3^33 (about 5.6e15), whose squarefree part has constant term
# -3^15, so the rational root search is cheap only on the squarefree part
ROOT_SEARCH_PIN = ["toric-gen", "--polytope", "tests/data/cp2x3.json", "--field", "Q",
                   "--format", "json"]
# non-integral rational input, so the Fraction side of Q arithmetic is pinned
# too: a Laurent polynomial with coefficients 1/2 and 3, and lambda_xy in the
# basis rescaled by t = 1/2 (its relations hold, its coefficients are not all
# integers)
FRACTIONAL_PINS = (
    ["jac", "--superpotential", "tests/data/half_three.json", "--field", "Q",
     "--format", "json"],
    ["spectrum", "--superpotential", "tests/data/half_three.json", "--field", "Q",
     "--format", "json"],
    ["ainfty-check", "--ainfty", "tests/data/lambda_xy_half.json", "--format", "json"],
)


def invocations():
    """The recorded command lines, as argv lists relative to the root."""
    polytopes = sorted(p.relative_to(ROOT).as_posix()
                       for p in (ROOT / "demos" / "data").glob("*.json"))
    structures = sorted(p.relative_to(ROOT).as_posix()
                        for p in (ROOT / "src" / "floergen" / "data").glob("*.json"))
    out = []
    for command in POLYTOPE_COMMANDS:
        for path in polytopes:
            for field in FIELDS:
                base = [command, "--polytope", path, "--field", field]
                out.append(base + ["--format", "json"])
                if command in TEXT_COMMANDS:
                    out.append(base)
    out.extend(["real-gen", "--polytope", path, "--field", "F2", "--format", "json"]
               for path in REAL_GEN_PINS)
    out.extend(["toric-gen", "--polytope", path, "--field", field, "--format", "json"]
               for path in REAL_GEN_PINS for field in TORIC_GEN_PIN_FIELDS)
    out.extend(list(argv) for argv in MIN_CHERN_1_TEXT_PINS)
    out.append(SEMISIMPLE_Q_PIN)
    out.append(LINE_LEAVES_F7_PIN)
    out.append(ROOT_SEARCH_PIN)
    out.append(["smod2", "--field", "F3", "--rho", "1,2"])
    out.extend(["ainfty-check", "--ainfty", path, "--format", "json"]
               for path in structures)
    out.extend(list(argv) for argv in FRACTIONAL_PINS)
    return out


def digest(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_cli_reports_match_recorded_digests(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    argvs = invocations()
    assert sorted(" ".join(a) for a in argvs) == sorted(recorded)
    changed = [" ".join(a) for a in argvs
               if digest(a, capsys) != recorded[" ".join(a)]]
    assert changed == []


def test_real_gen_pins_hold_the_real_locus_statements(capsys, monkeypatch):
    # ker(squaring) <= ker(reduction), and dim QH_R = 2^(N-n) dim QH for N
    # facets in dimension n: 2^4 * 6 on dP6, 2^5 * 12 on dP6 x CP1, 2^6 * 64
    # on CP1^6
    monkeypatch.chdir(ROOT)
    for path, (dim_qh, dim_qh_r) in REAL_GEN_PINS.items():
        polytope = json.loads((ROOT / path).read_text(encoding="utf-8"))
        assert dim_qh_r == 2 ** (len(polytope["normals"]) - polytope["dim"]) * dim_qh
        assert run(["real-gen", "--polytope", path, "--field", "F2",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["containment"] is True
        assert (report["dim_qh"], report["dim_qh_r"]) == (dim_qh, dim_qh_r)
