"""The benchmark's tracer must install on floergen and leave it as it was.

`bench/tracing.py` wraps floergen's functions and methods by name, so a
rename or deletion in floergen breaks `bench/run.py --trace 1`.  The bench
tests are not part of this suite; this test keeps that breakage visible here.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

from conftest import lpoly

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("cli", "toric", "laurent", "grobner", "linalg", "algebra",
           "quantum", "realgen", "scalar", "ainfty", "errors")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("floergen_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every floergen module and every class defined in one, by name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "floergen" or name.startswith("floergen.")):
            continue
        out[name] = mod
        for attr, value in vars(mod).items():
            if inspect.isclass(value) and value.__module__ == name:
                out[f"{name}.{attr}"] = value
    return out


def _snapshot():
    return {key: dict(vars(owner)) for key, owner in _namespaces().items()}


def test_tracer_installs_and_restores_originals():
    """Everything runs on the module objects handed to `install`: another
    test may have imported floergen afresh, leaving this file's own imports
    bound to modules the tracer does not patch."""
    tracing = _load_tracing()
    fg = {m: importlib.import_module(f"floergen.{m}") for m in MODULES}
    grobner, linalg = fg["grobner"], fg["linalg"]
    QQ = fg["scalar"].QQ
    before = _snapshot()
    original_buchberger = grobner.buchberger
    tracer = tracing.Tracer()
    tracer.install(fg)
    try:
        assert grobner.buchberger is not original_buchberger
        R = fg["laurent"].LaurentRing(["z"], QQ)
        qa = grobner.laurent_quotient([lpoly(R, {(2,): 1, (0,): -1})])
        zmat = qa.element_mult_matrix(qa.nf_coords(R.variable(0)))
        assert linalg.rank(QQ, zmat) == 2
        assert tracer.counts["grobner.buchberger.calls"] == 1
        assert tracer.counts["grobner.laurent_quotient.calls"] == 1
        assert tracer.counts["linalg.rank.calls"] == 1
        assert tracer.counts["grobner.staircase_dim"] == 2
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


DEMO_CP2 = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data" / "cp2.json"
# the counters bench/test_bench.py asserts, and the kernel containment check
# that real-gen's report reads
TRACED_COUNTERS = ("grobner.buchberger.calls", "grobner.reduction_steps",
                   "scalar.zero_one.calls", "ainfty.hochschild_diff.calls",
                   "ainfty.premorphism_diff.calls", "realgen.kernel_containment_check.calls")


def test_traced_names_are_called():
    """A change that stops calling a name the benchmark counts fails here,
    not only in the benchmark's own tests."""
    tracing = _load_tracing()
    fg = {m: importlib.import_module(f"floergen.{m}") for m in MODULES}
    tracer = tracing.Tracer()
    tracer.install(fg)
    try:
        for argv in (["toric-gen", "--field", "F7"], ["real-gen"]):
            assert fg["cli"].run(argv + ["--polytope", str(DEMO_CP2)]) == 0, argv
        ainfty = fg["ainfty"]
        A = ainfty.load_example("lambda_x")
        assert ainfty.check_module_relations(ainfty.self_module(A), cap=2)
        assert ainfty.check_bimodule_relations(ainfty.diagonal_bimodule(A), cap=2)
    finally:
        tracer.uninstall()
    assert [name for name in TRACED_COUNTERS if not tracer.counts[name]] == []
