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
    out.append(["smod2", "--field", "F3", "--rho", "1,2"])
    out.extend(["ainfty-check", "--ainfty", path, "--format", "json"]
               for path in structures)
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
