"""Spans and counters around floergen's public functions, installed from the
benchmark's own code.

`Tracer.install(fg)` replaces each traced function by a wrapper in every
`floergen.*` namespace that binds it (modules imported whole, like `linalg`,
and names imported with `from ... import`), and patches traced methods on
their classes.  A wrapper records one span (parent, job id, name, start, end)
and counts the call; `uninstall` puts the originals back.  Self time is a
span's duration minus the time its child spans cover.  Field arithmetic is
never spanned (tens of millions of calls); its time is the caller's self time.
"""

from __future__ import annotations

import collections
import gzip
import sys
import time

# span name -> (module, attribute path); a dotted path is a method on a class
SPANNED = {
    "cli.run": ("cli", "run"),
    "toric.validate": ("toric", "validate"),
    "toric.monotone_normalize": ("toric", "monotone_normalize"),
    "toric.h2_lattice": ("toric", "h2_lattice"),
    "toric.superpotential": ("toric", "superpotential"),
    "toric.minimal_chern": ("toric", "minimal_chern"),
    "grobner.buchberger": ("grobner", "buchberger"),
    "grobner.normal_form": ("grobner", "normal_form_poly"),
    "grobner.laurent_quotient": ("grobner", "laurent_quotient"),
    "grobner.polynomial_quotient": ("grobner", "polynomial_quotient"),
    "grobner.algebra_morphism": ("grobner", "algebra_morphism"),
    "algebra.local_decompose": ("algebra", "local_decompose"),
    "algebra.bezout_idempotents": ("algebra", "bezout_idempotents"),
    "algebra.radical_char_p": ("algebra", "radical_char_p"),
    "algebra.from_quotient": ("algebra", "FiniteAlgebra.from_quotient"),
    "algebra.mult": ("algebra", "FiniteAlgebra.mult"),
    "algebra.mult_matrix": ("algebra", "FiniteAlgebra.mult_matrix"),
    "algebra.power": ("algebra", "FiniteAlgebra.power"),
    "algebra.eval_poly": ("algebra", "FiniteAlgebra.eval_poly"),
    "quantum.jacobian_ring": ("quantum", "jacobian_ring"),
    "quantum.qh_presentation": ("quantum", "qh_presentation"),
    "quantum.co0_map": ("quantum", "co0_map"),
    "quantum.critical_points": ("quantum", "critical_points"),
    "quantum.c1_spectrum": ("quantum", "c1_spectrum"),
    "quantum.toric_generation_report": ("quantum", "toric_generation_report"),
    "realgen.reduction_pi": ("realgen", "reduction_pi"),
    "realgen.frobenius_matrix": ("realgen", "frobenius_matrix"),
    "realgen.kernel_containment_check": ("realgen", "kernel_containment_check"),
    "realgen.real_gen_data": ("realgen", "real_gen_data"),
    "realgen.real_generation_report": ("realgen", "real_generation_report"),
    "scalar.univariate_factor": ("scalar", "univariate_factor"),
    "scalar.rational_roots": ("scalar", "rational_roots"),
    "ainfty.from_json": ("ainfty", "AInftyStructure.from_json"),
    "ainfty.ainfty_residuals": ("ainfty", "ainfty_residuals"),
    "ainfty.opposite": ("ainfty", "opposite"),
    "ainfty.self_module": ("ainfty", "self_module"),
    "ainfty.diagonal_bimodule": ("ainfty", "diagonal_bimodule"),
    "ainfty.hom_bimodule": ("ainfty", "hom_bimodule"),
    "ainfty.premorphism_diff": ("ainfty", "premorphism_diff"),
    "ainfty.hochschild_diff": ("ainfty", "hochschild_diff"),
    "ainfty.check_module_relations": ("ainfty", "check_module_relations"),
    "ainfty.check_bimodule_relations": ("ainfty", "check_bimodule_relations"),
}
for _name in ("rref", "rank", "kernel_basis", "image_basis", "solve", "invert",
              "span_contains", "subspace_contained", "charpoly",
              "minimal_polynomial", "mat_mul", "mat_vec", "mat_pow",
              "eval_poly_at_matrix", "transpose", "zeros", "identity"):
    SPANNED[f"linalg.{_name}"] = ("linalg", _name)
for _name in ("nf_coords", "reduce_poly", "basis_mult_matrix",
              "element_mult_matrix", "element_product"):
    SPANNED[f"grobner.quotient.{_name}"] = ("grobner", f"QuotientAlgebra.{_name}")
for _name in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__",
              "scalar_mul", "log_derivative", "evaluate"):
    SPANNED[f"laurent.{_name}"] = ("laurent", f"LaurentPoly.{_name}")

ROOT_SPAN = "bench.job"
MODULES = ("cli", "toric", "laurent", "grobner", "linalg", "algebra", "quantum",
           "realgen", "scalar", "ainfty", "bench")


class Tracer:
    def __init__(self):
        self.spans = []  # (parent index or -1, job id, name, start, end)
        self.counts = collections.Counter()
        self.job = None
        self._stack = []  # (span index, name) of the open spans
        self._patches = []  # (owner, attribute, original value)

    # --- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else (-1, None)
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent[0], self.job, name, start, end)
                counts[calls] += 1
            if after is not None:
                after(args, result, parent[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job = job_id
        try:
            return self._wrap(ROOT_SPAN, fn)()
        finally:
            self.job = None

    # --- counters at the same boundaries -------------------------------------

    def _after_buchberger(self, args, result, parent):
        self.counts["grobner.basis_size"] += len(result)

    def _after_quotient(self, args, result, parent):
        if result.finite:
            self.counts["grobner.staircase_dim"] += len(result.staircase)

    def _after_normal_form(self, args, result, parent):
        # only S-polynomial and interreduction normal forms can grow a basis
        if parent == "grobner.buchberger":
            self.counts["grobner.normal_form.in_buchberger"] += 1
            if result:
                self.counts["grobner.normal_form.nonzero"] += 1

    def _after_rref(self, args, result, parent):
        mat = args[1]
        self.counts["linalg.rref.cells"] += len(mat) * (len(mat[0]) if mat else 0)

    def _after_local_decompose(self, args, result, parent):
        self.counts["algebra.local_factors"] += len(result)

    _AFTER = {
        "grobner.buchberger": _after_buchberger,
        "grobner.laurent_quotient": _after_quotient,
        "grobner.polynomial_quotient": _after_quotient,
        "grobner.normal_form": _after_normal_form,
        "linalg.rref": _after_rref,
        "algebra.local_decompose": _after_local_decompose,
    }

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, fg_modules):
        """Wrap every traced callable; `fg_modules` maps short names
        ("grobner", ...) to floergen's module objects."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "floergen" or k.startswith("floergen."))]
        for name, (mod_name, path) in SPANNED.items():
            owner = fg_modules[mod_name]
            *cls_path, attr = path.split(".")
            after = self._AFTER.get(name)
            bound = None if after is None else after.__get__(self)
            if cls_path:
                cls = getattr(owner, cls_path[0])
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__, bound)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw, bound))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, bound)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)
        self._install_counters(fg_modules)

    def _install_counters(self, fg_modules):
        counts = self.counts
        field_cls = fg_modules["scalar"].Field
        for attr in ("zero", "one"):
            getter = field_cls.__dict__[attr].fget

            def counted(obj, _get=getter):
                counts["scalar.zero_one.calls"] += 1
                return _get(obj)

            self._patch(field_cls, attr, property(counted))
        budget_cls = fg_modules["grobner"].Budget
        budget_error = fg_modules["errors"].ResourceBudgetError
        tick = budget_cls.__dict__["tick"]

        def counted_tick(budget, context=""):
            counts["grobner.reduction_steps"] += 1
            try:
                return tick(budget, context)
            except budget_error:
                counts["grobner.budget_exhausted"] += 1
                raise

        self._patch(budget_cls, "tick", counted_tick)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis -------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the union of its children's intervals."""
        children = collections.defaultdict(list)
        for index, (parent, _, _, start, end) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for index, (_, _, _, start, end) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for s, e in sorted(children.get(index, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out.append((end - start) - covered)
        return out

    def root_mismatch(self, self_times):
        """Largest |sum of a job's self times - its root span's duration|."""
        total = collections.Counter()
        root = {}
        for (parent, job, name, start, end), own in zip(self.spans, self_times):
            total[job] += own
            if parent < 0:
                root[job] = end - start
        return max((abs(total[j] - root[j]) for j in root), default=0.0)

    def layer_metrics(self):
        """Per-layer values, {name: (value, unit)}, over everything recorded."""
        own = self.self_times()
        self_s = collections.Counter()
        inclusive = collections.Counter()
        for (_, _, name, start, end), t in zip(self.spans, own):
            self_s[name] += t
            inclusive[name] += end - start
        c = self.counts
        out = {}
        for module in MODULES:
            out[f"{module}.self_s"] = (
                sum(t for n, t in self_s.items() if n.split(".")[0] == module), "s")
        for name in ("grobner.buchberger", "grobner.normal_form", "grobner.algebra_morphism",
                     "linalg.rref", "scalar.univariate_factor", "scalar.rational_roots",
                     "ainfty.premorphism_diff", "ainfty.hochschild_diff"):
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["grobner.quotient.self_s"] = (
            sum(t for n, t in self_s.items() if n.startswith("grobner.quotient.")), "s")
        # none of these recurses, so summed durations are wall time inside them
        for name in ("algebra.local_decompose", "algebra.bezout_idempotents",
                     "realgen.kernel_containment_check", "realgen.frobenius_matrix",
                     "ainfty.check_module_relations", "ainfty.check_bimodule_relations"):
            out[f"{name}.s"] = (inclusive[name], "s")
        for name in ("grobner.buchberger", "grobner.normal_form", "linalg.rref",
                     "linalg.span_contains", "algebra.mult", "quantum.jacobian_ring",
                     "scalar.univariate_factor", "ainfty.premorphism_diff",
                     "ainfty.hochschild_diff", "scalar.zero_one"):
            out[f"{name}.calls"] = (c[f"{name}.calls"], "count")
        for name in ("grobner.reduction_steps", "grobner.basis_size", "grobner.staircase_dim",
                     "grobner.budget_exhausted", "linalg.rref.cells", "algebra.local_factors"):
            out[name] = (c[name], "count")
        attempted = c["grobner.normal_form.in_buchberger"]
        out["grobner.normal_form.nonzero_ratio"] = (
            c["grobner.normal_form.nonzero"] / attempted if attempted else 0.0, "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path):
        """Spans as gzipped TSV: index, parent, job, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tjob\tname\tstart\tend\n")
            for index, (parent, job, name, start, end) in enumerate(self.spans):
                fh.write(f"{index}\t{parent}\t{job}\t{name}\t{start!r}\t{end!r}\n")
