import json
import os
import pathlib
import subprocess
import sys

import pytest

from floergen import cli, quantum, realgen, scalar
from floergen.algebra import FiniteAlgebra, local_decompose
from floergen.cli import run
from floergen.grobner import Morphism, laurent_quotient
from floergen.quantum import jacobian_ring
from floergen.laurent import laurent_from_json
from floergen.toric import corpus, superpotential


@pytest.fixture()
def polytope_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(corpus()[name].to_json()))
        return str(path)

    return write


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, polytope_file):
    code, out, _ = invoke(capsys, ["validate", "--polytope", polytope_file("CP2")])
    assert code == 0
    assert "valid: true" in out


def test_validate_bad_polytope_exit_1(capsys, tmp_path):
    bad = {"name": "bad", "dim": 2, "normals": [[1, 0], [0, 1], [-1, -2]],
           "lambda": ["1", "1", "1"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = invoke(capsys, ["validate", "--polytope", str(path)])
    assert code == 1
    assert "unimodularity" in err
    assert "[1, 3]" in err


def test_validate_bad_polytope_json_error(capsys, tmp_path):
    bad = {"name": "bad", "dim": 2, "normals": [[1, 0], [0, 1], [-1, -2]],
           "lambda": ["1", "1", "1"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = invoke(
        capsys, ["validate", "--polytope", str(path), "--format", "json"])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "validation:unimodularity"
    assert data["facets"] == [1, 3]


@pytest.mark.parametrize("dim", [0, -1])
def test_validate_polytope_dim_below_one_is_an_error_record(capsys, tmp_path, dim):
    # dim -1 used to crash inside validate, and dim 0 to fail irredundancy
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": dim, "normals": [], "lambda": []}))
    code, out, _ = invoke(capsys, ["validate", "--polytope", str(path), "--format", "json"])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "UsageError"
    assert record["message"] == f"polytope dim must be at least 1, not {dim}"


@pytest.mark.parametrize("key", ["lambda", "variables"])
def test_string_where_a_list_is_meant_is_an_error_record(capsys, tmp_path, key):
    # "111" used to validate as the support constants [1, 1, 1], and "ab" to
    # build Q[a^+-1, b^+-1]
    path = tmp_path / "input.json"
    if key == "lambda":
        data = {**corpus()["CP2"].to_json(), "lambda": "111"}
        argv = ["validate", "--polytope", str(path)]
    else:
        data = {"variables": "ab", "field": "Q",
                "terms": [{"coeff": "1", "exps": [1, 0]}, {"coeff": "1", "exps": [0, -1]}]}
        argv = ["jac", "--superpotential", str(path), "--field", "Q"]
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, argv + ["--format", "json"])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "UsageError"
    assert record["message"] == f"{key} must be a JSON array, not {data[key]!r}"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("key", ["name", "variables"])
def test_non_string_where_a_string_is_meant_is_an_error_record(capsys, tmp_path, key, fmt):
    # {"a": 1} used to be printed as real-gen's input name with exit 0, and
    # [1, 2] to die in `jac` with a TypeError while labelling the staircase
    path = tmp_path / "input.json"
    if key == "name":
        data = {**corpus()["CP2"].to_json(), "name": {"a": 1}}
        argv = ["real-gen", "--polytope", str(path)]
        message = "polytope name must be a JSON string, not {'a': 1}"
    else:
        data = {"variables": [1, 2], "field": "Q",
                "terms": [{"coeff": "1", "exps": e} for e in ([1, 0], [0, 1], [-1, -1])]}
        argv = ["jac", "--superpotential", str(path), "--field", "Q"]
        message = "variables entry must be a JSON string, not 1"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, argv + ["--format", fmt])
    assert code == 1
    if fmt == "json":
        assert json.loads(out) == {"error": "UsageError", "message": message}
    else:
        assert (out, err) == ("", f"error[UsageError]: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("value", [1.5, True])
@pytest.mark.parametrize("key", ["lambda", "coeff", "output"])
def test_float_or_bool_where_a_literal_is_meant_is_an_error_record(capsys, tmp_path, key,
                                                                   value, fmt):
    # each reader took its literal through str(): over Q 1.5 was read as 3/2
    # and exited 0, and True failed as a literal without naming its field
    path = tmp_path / "input.json"
    if key == "lambda":
        data = corpus()["CP2"].to_json()
        data["lambda"][0] = value
        argv = ["validate", "--polytope", str(path)]
        what = "lambda entry"
    elif key == "coeff":
        data = {"variables": ["x"], "field": "Q",
                "terms": [{"coeff": value, "exps": [1]}, {"coeff": "1", "exps": [-1]}]}
        argv = ["jac", "--superpotential", str(path), "--field", "Q"]
        what = "coeff"
    else:
        data = _lambda_x_with(mu={"2": [{"inputs": [0, 0], "output": {"0": value}}]})
        argv = ["ainfty-check", "--ainfty", str(path)]
        what = "output coefficient"
    path.write_text(json.dumps(data))
    message = f"{what} must be an integer or a string, not {value!r}"
    code, out, err = invoke(capsys, argv + ["--format", fmt])
    assert code == 1
    if fmt == "json":
        assert json.loads(out) == {"error": "UsageError", "message": message}
    else:
        assert (out, err) == ("", f"error[UsageError]: {message}\n")


@pytest.mark.parametrize("case", ["not-utf8", "5000-digit-int"])
def test_undecodable_input_file_is_an_error_record(capsys, tmp_path, case):
    # both used to escape as tracebacks: a UnicodeDecodeError, and the
    # ValueError of Python's 4,300-digit limit on int conversion
    path = tmp_path / "input.json"
    if case == "not-utf8":
        path.write_bytes(b"\xff\xfe" + b"{}")
        words = "can't decode byte 0xff"
    else:
        path.write_text('{"name": "big", "dim": 1, "normals": [[1], [-1]], '
                        '"lambda": [' + "1" * 5000 + ', 1]}')
        words = "integer string conversion"
    code, out, _ = invoke(capsys, ["validate", "--polytope", str(path), "--format", "json"])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "UsageError"
    assert record["message"].startswith(f"{path} is not valid JSON: ")
    assert words in record["message"]


@pytest.mark.parametrize("flag, argv", [
    ("--polytope", ["validate"]),
    ("--superpotential", ["jac", "--field", "Q"]),
    ("--ainfty", ["ainfty-check"]),
], ids=["polytope", "superpotential", "ainfty"])
def test_deeply_nested_input_file_is_an_error_record(capsys, tmp_path, flag, argv):
    # the JSON decoder raised RecursionError, which escaped as a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = invoke(capsys, argv + [flag, str(path), "--format", "json"])
    assert code == 1 and err == ""
    record = json.loads(out)
    assert record["error"] == "UsageError"
    assert record["message"].startswith(f"{path} is not valid JSON: ")


def test_missing_input_exit_1(capsys):
    code, _, err = invoke(capsys, ["validate"])
    assert code == 1
    assert "polytope" in err


def test_every_handler_is_a_subcommand(capsys):
    for name in cli._HANDLERS:
        assert cli._parser().parse_args([name]).subcommand == name
    code, _, err = invoke(capsys, ["no-such-command"])
    assert code == 1
    assert "invalid choice" in err


def test_toric_gen_cp2_f7(capsys, polytope_file):
    code, out, _ = invoke(capsys, [
        "toric-gen", "--polytope", polytope_file("CP2"),
        "--field", "F7", "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["minimal_chern"] == 3
    assert data["co0"] == {
        "well_defined": True, "failing_relation": None, "kernel_dim": 0,
        "surjective": True, "domain_dim": 3, "codomain_dim": 3,
    }
    assert len(data["summands"]) == 3
    points = sorted(tuple(s["point"]) for s in data["summands"])
    assert points == [("1", "1"), ("2", "2"), ("4", "4")]
    values = sorted(s["critical_value"] for s in data["summands"])
    assert values == ["3", "5", "6"]


def test_real_gen_cp2(capsys, polytope_file):
    code, out, _ = invoke(capsys, [
        "real-gen", "--polytope", polytope_file("CP2"), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["containment"] is True
    assert data["pi_kernel_dim"] == 3
    assert data["frobenius_kernel_dim"] == 3
    assert data["dim_qh_r"] == 6 and data["dim_qh"] == 3


def test_cohomology_validates_and_lists_collections_once(capsys, monkeypatch):
    """Both presentations of `floergen cohomology` share one validation and
    one list of primitive collections, as quantum sees them."""
    calls = []
    for name in ("validate", "primitive_collections"):
        def counted(*args, _name=name, _original=getattr(quantum, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(quantum, name, counted)
    demo = pathlib.Path(__file__).parents[1] / "demos" / "data" / "cp2.json"
    code, out, _ = invoke(capsys, ["cohomology", "--polytope", str(demo)])
    assert code == 0 and out
    assert sorted(calls) == ["primitive_collections", "validate"]


def test_cohomology_and_superpotential(capsys, polytope_file):
    code, out, _ = invoke(capsys, [
        "cohomology", "--polytope", polytope_file("CP3"), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["classical_graded_dims"] == [1, 1, 1, 1]
    assert data["real_locus_dims_F2"] == [1, 1, 1, 1]

    code, out, _ = invoke(capsys, [
        "superpotential", "--polytope", polytope_file("CP1"),
        "--field", "F5", "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["superpotential"]["terms"] == [
        {"coeff": "1", "exps": [-1]}, {"coeff": "1", "exps": [1]},
    ]


def test_jac_roundtrip_presentation(capsys, polytope_file, tmp_path):
    code, out, _ = invoke(capsys, [
        "jac", "--polytope", polytope_file("CP2"), "--field", "F7",
        "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    pres = data["presentation"]
    assert pres["dim"] == 3
    # re-ingest the emitted generators: identical staircase and dims
    gens = [laurent_from_json(g) for g in pres["generators"]]
    rebuilt = laurent_quotient(gens)
    assert rebuilt.dim == pres["dim"]
    assert rebuilt.basis_labels() == pres["staircase"]


def test_jac_from_superpotential_file(capsys, tmp_path):
    W = {
        "variables": ["x", "y", "z"],
        "field": "F5",
        "terms": [
            {"coeff": "1", "exps": [1, 0, 0]},
            {"coeff": "1", "exps": [0, 1, 0]},
            {"coeff": "1", "exps": [0, 0, 1]},
            {"coeff": "1", "exps": [-1, -1, 0]},
            {"coeff": "1", "exps": [0, -1, -1]},
        ],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(W))
    code, out, _ = invoke(capsys, [
        "jac", "--superpotential", str(path), "--field", "F5",
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["presentation"]["dim"] == 3


def test_spectrum_and_decompose(capsys, polytope_file):
    code, out, _ = invoke(capsys, [
        "spectrum", "--polytope", polytope_file("CP1"), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["spectrum"]["char_poly"] == ["-4", "0", "1"]

    code, out, _ = invoke(capsys, [
        "decompose", "--polytope", polytope_file("CP2"),
        "--field", "F7", "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["points"] == [["1", "1"], ["2", "2"], ["4", "4"]]

    code, _, err = invoke(capsys, [
        "decompose", "--polytope", polytope_file("CP2"), "--field", "Q",
    ])
    assert code == 1


ZERO_RING_W = {"variables": ["z"], "field": "Q",
               "terms": [{"exps": [1], "coeff": "1"}, {"exps": [0], "coeff": "1"}]}


@pytest.mark.parametrize("command, field, key", [
    ("spectrum", "Q", "eigenspaces"), ("decompose", "F7", "factors"),
])
def test_zero_ring_reports(capsys, tmp_path, command, field, key):
    # W = z + 1 has no critical point: the Jacobian ideal is the unit ideal
    # and the ring is 0-dimensional, with no eigenspace and no local factor
    path = tmp_path / "w.json"
    path.write_text(json.dumps(ZERO_RING_W))
    argv = [command, "--superpotential", str(path), "--field", field]
    code, out, err = invoke(capsys, argv + ["--format", "json"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["dim"] == 0
    report = data["spectrum"] if command == "spectrum" else data
    assert report[key] == []
    code, out, err = invoke(capsys, argv)
    assert code == 0 and err == ""
    lines = [line.strip() for line in out.splitlines()]
    assert "dim: 0" in lines and f"{key}: []" in lines


def test_qh_and_co0(capsys, polytope_file):
    code, out, _ = invoke(capsys, [
        "qh", "--polytope", polytope_file("CP2"), "--field", "F7",
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["presentation"]["dim"] == 3

    code, out, _ = invoke(capsys, [
        "co0", "--polytope", polytope_file("CP2"), "--field", "F3",
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["isomorphism"] is True


def test_co0_that_is_no_isomorphism_exits_3(capsys, polytope_file, monkeypatch):
    monkeypatch.setattr(quantum, "algebra_morphism", lambda domain, codomain, images:
                        Morphism(True, None, None, 1, domain.dim, codomain.dim))
    code, out, _ = invoke(capsys, [
        "co0", "--polytope", polytope_file("CP2"), "--field", "F3", "--format", "json",
    ])
    assert code == 3
    data = json.loads(out)
    assert data["isomorphism"] is False
    assert data["co0"] == {"well_defined": True, "failing_relation": None, "kernel_dim": 1,
                           "surjective": False, "domain_dim": 3, "codomain_dim": 3}


def test_anomaly_is_an_error_record_with_exit_3(capsys, polytope_file, monkeypatch):
    # real-gen's one ring-map walk is the Frobenius lift's
    monkeypatch.setattr(realgen, "algebra_morphism", lambda domain, codomain, images:
                        Morphism(False, 0, None, None, domain.dim, codomain.dim))
    code, out, err = invoke(capsys, [
        "real-gen", "--polytope", polytope_file("CP2"), "--format", "json",
    ])
    assert code == 3 and err == ""
    assert json.loads(out) == {
        "error": "anomaly",
        "message": "Frobenius lift is not well defined; squared plain "
                   "relations must land in the squared-weight ideal",
    }


def test_smod2(capsys):
    code, out, _ = invoke(capsys, [
        "smod2", "--field", "F7", "--rho", "2,3", "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3 and data["checks"]["ok"] is True

    code, _, err = invoke(capsys, ["smod2", "--field", "F7"])
    assert code == 1


def test_ainfty_check(capsys, tmp_path):
    from floergen.ainfty import load_example

    path = tmp_path / "lx.json"
    path.write_text(json.dumps(load_example("lambda_x").to_json()))
    code, out, _ = invoke(capsys, [
        "ainfty-check", "--ainfty", str(path), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["relations_hold"] is True
    assert data["opposite_involutive"] is True
    assert data["failures"] == []

    # doubling mu^2(e, e) on dga3 breaks associativity at arity 3 only;
    # failures come ordered by (arity, inputs) whatever the input order.
    # e is then no strict unit, so the copy declares none
    bad = load_example("dga3").to_json()
    bad["unit"] = None
    bad["mu"]["2"].reverse()
    for entry in bad["mu"]["2"]:
        if entry["inputs"] == [0, 0]:
            entry["output"] = {"0": "2"}
    path = tmp_path / "dga3_bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = invoke(capsys, [
        "ainfty-check", "--ainfty", str(path), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["relations_hold"] is False
    assert data["failures"] == [
        {"arity": 3, "inputs": [0, 0, 1], "residual": {"1": "-1"}},
        {"arity": 3, "inputs": [0, 0, 2], "residual": {"2": "-1"}},
        {"arity": 3, "inputs": [1, 0, 0], "residual": {"1": "1"}},
        {"arity": 3, "inputs": [2, 0, 0], "residual": {"2": "1"}},
    ]


def _lambda_x_with(**changes):
    from floergen.ainfty import load_example

    data = load_example("lambda_x").to_json()
    data.update(changes)
    return data


@pytest.mark.parametrize("data", [
    _lambda_x_with(mu={"2": [{"inputs": [0, 5], "output": {"0": "1"}}]}),
    _lambda_x_with(mu={"2": [{"inputs": [0, -1], "output": {"1": "1"}}]}),
    _lambda_x_with(mu={"2": [{"inputs": [0, 0], "output": {"7": "1"}}]}),
    _lambda_x_with(unit=9),
], ids=["input-5", "input-minus-1", "output-7", "unit-9"])
def test_ainfty_check_rejects_out_of_range_indices(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, [
        "ainfty-check", "--ainfty", str(path), "--format", "json",
    ])
    assert code == 1
    assert json.loads(out)["error"] == "UsageError"


@pytest.mark.parametrize("case", ["jac", "polytope-lambda", "ainfty-output", "smod2-rho"])
def test_zero_denominator_is_an_error_record(capsys, tmp_path, case):
    path = tmp_path / "input.json"
    if case == "jac":
        path.write_text(json.dumps({
            "variables": ["x"], "field": "Q",
            "terms": [{"coeff": "1/0", "exps": [1]}, {"coeff": "1", "exps": [-1]}],
        }))
        argv = ["jac", "--superpotential", str(path), "--field", "Q"]
    elif case == "polytope-lambda":
        data = corpus()["CP2"].to_json()
        data["lambda"][0] = "1/0"
        path.write_text(json.dumps(data))
        argv = ["validate", "--polytope", str(path)]
    elif case == "ainfty-output":
        path.write_text(json.dumps(_lambda_x_with(
            mu={"2": [{"inputs": [0, 0], "output": {"0": "1/0"}}]})))
        argv = ["ainfty-check", "--ainfty", str(path)]
    else:
        argv = ["smod2", "--field", "Q", "--rho", "1/0"]
    code, out, _ = invoke(capsys, argv + ["--format", "json"])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "DomainError"
    assert record["message"] == "division by zero"


@pytest.mark.parametrize("field, rho", [
    ("Q", "abc"), ("Q", "1/x"), ("Q", "1,2.5.1"), ("Q", "1e5"),
    ("F7", "x"), ("F7", "1/x"), ("F7", "1/2/3"), ("F7", "1.5"), ("F7", "1,,2"),
    # numerals that int() and Fraction() alone would read
    ("Q", "1_000"), ("F7", "1_000"), ("Q", "\u0661"), ("F7", "1/\u0662"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_malformed_field_literal_is_an_error_record(capsys, field, rho, fmt):
    code, out, err = invoke(capsys, ["smod2", "--field", field, "--rho", rho,
                                     "--format", fmt])
    assert code == 1
    if fmt == "json":
        record = json.loads(out)
        assert record["error"] == "UsageError"
        assert record["message"].startswith(f"malformed {field} literal")
    else:
        assert out == ""
        assert err.startswith(f"error[UsageError]: malformed {field} literal")


def test_superscript_field_spec_is_an_error_record(capsys):
    dp6 = pathlib.Path(__file__).parent / "data" / "dp6.json"
    code, out, _ = invoke(capsys, ["spectrum", "--polytope", str(dp6),
                                   "--field", "F²", "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "UsageError"


def _non_ascii_numeral_case(case, path):
    """argv reading a numeral that `int` alone would accept: an Arabic-Indic
    digit."""
    if case == "field-spec":
        return ["smod2", "--field", "F\u0667", "--rho", "1"]
    if case == "polytope-lambda":
        data = corpus()["CP1"].to_json()
        data["lambda"][0] = "\u0661"
        path.write_text(json.dumps(data))
        return ["validate", "--polytope", str(path)]
    mu = _lambda_x_with()["mu"]
    if case == "ainfty-arity":
        mu = {"\u0662": mu["2"]}
    else:
        mu["2"][0]["output"] = {"\u0660": "1"}
    path.write_text(json.dumps(_lambda_x_with(mu=mu)))
    return ["ainfty-check", "--ainfty", str(path)]


@pytest.mark.parametrize("case", ["field-spec", "polytope-lambda", "ainfty-arity",
                                  "ainfty-output"])
def test_non_ascii_numeral_is_an_error_record(capsys, tmp_path, case):
    argv = _non_ascii_numeral_case(case, tmp_path / "input.json")
    code, out, _ = invoke(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ["cohomology"], ["jac"], ["qh"], ["co0"], ["spectrum"], ["decompose"],
    ["smod2", "--rho", "1"],
], ids=lambda argv: argv[0])
def test_reports_print_the_canonical_field_name(capsys, polytope_file, argv):
    code, out, _ = invoke(capsys, argv + ["--polytope", polytope_file("CP1"),
                                          "--field", "F07", "--format", "json"])
    assert code == 0
    assert json.loads(out)["field"] == "F7"


def test_budget_exhaustion_exit_2(capsys, polytope_file):
    code, _, err = invoke(capsys, [
        "co0", "--polytope", polytope_file("CP3"), "--field", "F5",
        "--budget", "5",
    ])
    assert code == 2
    assert "budget" in err
    code, out, _ = invoke(capsys, [
        "co0", "--polytope", polytope_file("CP3"), "--field", "F5",
        "--budget", "5", "--format", "json",
    ])
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "budget"
    assert record["steps"] == 6  # the tick past the limit of 5
    assert isinstance(record["basis_size"], int) and record["basis_size"] > 0


def test_budget_covers_whole_command(capsys, polytope_file):
    # the classical and the real-locus quotient of CP3 take 2 steps each
    path = polytope_file("CP3")
    code, _, err = invoke(capsys, ["cohomology", "--polytope", path, "--budget", "3"])
    assert code == 2
    assert "budget" in err
    code, out, _ = invoke(capsys, [
        "cohomology", "--polytope", path, "--budget", "3", "--format", "json",
    ])
    assert code == 2
    assert json.loads(out)["steps"] == 4
    code, _, _ = invoke(capsys, ["cohomology", "--polytope", path, "--budget", "4"])
    assert code == 0



def test_budget_covers_every_normal_form(capsys, polytope_file):
    # real-gen on CP2 builds its two quotients in 13 steps (8 and 5); the
    # normal forms of the reduction map's relations in QH take 11, and the
    # map builds no columns; the normal forms of the Frobenius lift's
    # relation images in QH_R take 11, and its walk's columns are staircase
    # monomials of QH_R, so they take none: 35 steps, all under the one
    # --budget
    path = polytope_file("CP2")
    code, out, _ = invoke(capsys, [
        "real-gen", "--polytope", path, "--budget", "34", "--format", "json",
    ])
    assert code == 2
    assert json.loads(out)["steps"] == 35
    code, _, _ = invoke(capsys, ["real-gen", "--polytope", path, "--budget", "35"])
    assert code == 0

def test_text_output_byte_stable(capsys, polytope_file):
    path = polytope_file("CP2")
    argv = ["toric-gen", "--polytope", path, "--field", "F7"]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2
    argv = ["real-gen", "--polytope", path, "--format", "json"]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2


def test_seed_embedded_in_reports(capsys, polytope_file):
    code, out, _ = invoke(capsys, [
        "decompose", "--polytope", polytope_file("CP2"), "--field", "F7",
        "--seed", "11", "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_cli_seed_does_not_leak_into_library(capsys, polytope_file, monkeypatch):
    seeds = []
    real_random = scalar.random.Random

    def recording_random(seed=None):
        seeds.append(seed)
        return real_random(seed)

    monkeypatch.setattr(scalar.random, "Random", recording_random)
    code, _, _ = invoke(capsys, [
        "decompose", "--polytope", polytope_file("CP2"), "--field", "F7",
        "--seed", "11",
    ])
    assert code == 0
    assert seeds and set(seeds) == {11}
    seeds.clear()
    W = superpotential(corpus()["CP2"], scalar.PrimeField(7))
    local_decompose(FiniteAlgebra.from_quotient(jacobian_ring(W)))
    assert seeds and set(seeds) == {scalar.DEFAULT_SEED}


CURVED = {"field": "Q", "degrees": [0, 0], "mu": {
    "0": [{"inputs": [], "output": {"0": "1"}}],
    "2": [{"inputs": [0, 0], "output": {"0": "1"}},
          {"inputs": [0, 1], "output": {"1": "1"}}]}}


@pytest.mark.parametrize("data, words", [
    (CURVED, "mu^0"),
    (_lambda_x_with(mu={"-1": [{"inputs": [1], "output": {"1": "1"}}]}), "mu^-1"),
    (_lambda_x_with(labels=["a"]), "1 labels"),
], ids=["mu0-curvature", "arity-minus-1", "one-label-for-dim-2"])
def test_ainfty_check_rejects_arity_below_one_and_label_count(capsys, tmp_path,
                                                              data, words):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, [
        "ainfty-check", "--ainfty", str(path), "--format", "json",
    ])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "UsageError"
    assert words in record["message"]


@pytest.mark.parametrize("arity", [0, -2])
def test_ainfty_check_rejects_checked_arity_below_one(capsys, tmp_path, arity):
    # --arity -2 used to report relations_hold: true with nothing checked
    path = tmp_path / "lx.json"
    path.write_text(json.dumps(_lambda_x_with()))
    code, out, _ = invoke(capsys, [
        "ainfty-check", "--ainfty", str(path), "--arity", str(arity), "--format", "json",
    ])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "UsageError"
    assert f"at least 1, not {arity}" in record["message"]


@pytest.mark.parametrize("data, words", [
    (_lambda_x_with(mu=[1]), "mu must be a JSON object"),
    (_lambda_x_with(mu={"2": [{"inputs": [0, 0], "output": "1"}]}),
     "output must be a JSON object"),
    (_lambda_x_with(field=7), "field spec must be a string"),
    (_lambda_x_with(labels=[1, 2]), "labels entry must be a JSON string, not 1"),
], ids=["mu-array", "output-string", "field-int", "labels-int"])
def test_ainfty_check_rejects_json_of_the_wrong_type(capsys, tmp_path, data, words):
    # each used to die with an uncaught AttributeError and an empty stdout
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, [
        "ainfty-check", "--ainfty", str(path), "--format", "json",
    ])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "UsageError"
    assert words in record["message"]


def _run_python(args, stdout=subprocess.PIPE):
    """A fresh interpreter with this checkout's src/ on its path."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def test_python_dash_m_floergen_help():
    proc = _run_python(["-m", "floergen", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: floergen")


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader is gone before the report is written: the flush used to
    # raise BrokenPipeError, printed on stderr as a traceback
    dp6 = pathlib.Path(__file__).parent / "data" / "dp6.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_python(["-m", "floergen", "validate", "--polytope", str(dp6)],
                           stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


STDLIB_ONLY = """
import importlib, pkgutil, sys
before = set(sys.modules)
import floergen
for info in pkgutil.iter_modules(floergen.__path__):
    importlib.import_module("floergen." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"floergen"})))
"""


def test_runtime_imports_only_the_standard_library():
    proc = _run_python(["-c", STDLIB_ONLY])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
