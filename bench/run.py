"""floergen benchmark: one workload per process, one thread, every output checked.

    python3 bench/run.py --workload toric-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it imports floergen from `src/` there.  The
seed fixes the job order and the `--seed` every job passes to factorization;
the polytopes are reparametrised by the fixed `workloads.INPUT_SEED`.
A run sets up several times (importing floergen and writing the generated
inputs) and reports the median as `setup_s`, then makes one full pass over
the workload's jobs per PASS_SECONDS[workload] of `--seconds` (at least one).
The pass count depends on `--seconds` only, never on speed, so the job sample
count and the tail percentile are the same on every commit.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` the run makes one untraced pass, then one traced pass, and the
last line carries the per-layer metrics; spans go to
`.bench_out/<workload>-s<seed>/spans.tsv.gz`.  Lines before the last one
summarize the run for people.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 9
# One pass per this many seconds of --seconds.  ainfty-lab makes three passes
# in 20 s: its median job takes ~25 ms, and one sample of it swung by 60%.
PASS_SECONDS = {"toric-ladder": 20, "real-locus": 20, "ainfty-lab": 6}
FLOERGEN_MODULES = ("cli", "toric", "laurent", "grobner", "linalg", "algebra",
                    "quantum", "realgen", "scalar", "ainfty", "errors")


class BenchError(Exception):
    """The benchmark cannot run here (no floergen, bad arguments, ...)."""


def load_floergen():
    """Import floergen afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "floergen" or m.startswith("floergen.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "floergen", "__init__.py")):
        raise BenchError(f"no floergen package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("floergen")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise BenchError(f"imported floergen from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"floergen.{m}") for m in FLOERGEN_MODULES})


def setup(workload, seed, out_dir, input_seed=workloads.INPUT_SEED):
    """One set-up: import floergen and write the workload's generated inputs."""
    fg = load_floergen()
    jobs = workloads.build_jobs(workload, seed, fg, os.path.join(out_dir, "inputs"),
                                input_seed)
    return fg, jobs


def run_pass(jobs, fg, table, tracer=None):
    """One pass over the job list.  Returns (wall time, per-job times,
    failures as {job id: problems}, digest of all reports)."""
    times = []
    failures = {}
    reports = {}
    t0 = time.perf_counter()
    for job in jobs:
        gc.collect()  # the previous job's garbage is not this job's cost
        start = time.perf_counter()
        try:
            if tracer is None:
                code, text = workloads.execute(job, fg)
            else:
                code, text = tracer.run_job(job.id, lambda: workloads.execute(job, fg))
        except Exception:  # a crash is a failed job, not a failed run
            code, text = None, traceback.format_exc()
        times.append(time.perf_counter() - start)
        reports[job.id] = text
        if code is None:
            failures[job.id] = [text]
            continue
        try:
            problems = workloads.verify(job, code, text, table)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed report: {exc!r}"]
        if problems:
            failures[job.id] = problems
    wall = time.perf_counter() - t0
    digest = hashlib.sha256()
    for job_id in sorted(reports):
        digest.update(f"{job_id}\n{reports[job_id]}\n".encode())
    return wall, times, failures, digest.hexdigest()


def tail(samples):
    """Highest whole percentile, at or above the median, with at least ten
    samples beyond it (nearest rank); the maximum, as p100, when too few
    samples leave ten beyond the median.  Returns (percentile, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = -(-q * n // 100)  # ceil(q n / 100)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 100, ordered[-1]


def declared_metrics(kind):
    """Metric names and units from BENCHMARK.json ("end_to_end"/"per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result_line(kind, values, attempted, failed, correct):
    declared = declared_metrics(kind)
    missing = [n for n in declared if n not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for name, unit in declared.items():
        if values[name][1] != unit:
            raise BenchError(f"{name} measured in {values[name][1]}, declared {unit}")
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n][0], "unit": u} for n, u in declared.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)  # generated paths, and so reports, are relative to the root

    out_dir = os.path.join(".bench_out", f"{args.workload}-s{args.seed}")
    setup_times = []
    t_setup = T_START  # the first set-up counts from process start
    for _ in range(SETUPS):
        fg, jobs = setup(args.workload, args.seed, out_dir)
        now = time.perf_counter()
        setup_times.append(now - t_setup)
        t_setup = now
    table = workloads.load_invariants()

    pass_times, job_times, digests = [], [], set()
    attempted = failed = 0

    def one_pass(tracer=None):
        """Run and check one pass; untraced passes feed the timing metrics."""
        nonlocal attempted, failed
        wall, times, failures, digest = run_pass(jobs, fg, table, tracer)
        attempted += len(jobs)
        failed += len(failures)
        for job_id, problems in sorted(failures.items()):
            print(f"FAILED {job_id}: {'; '.join(problems)}")
        digests.add(digest)
        print(f"pass{' (traced)' if tracer else ''}: {wall:.3f} s, digest {digest}",
              flush=True)
        if tracer is None:
            pass_times.append(wall)
            job_times.extend(times)
        return wall

    untraced_wall = one_pass()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(vars(fg))
        try:
            traced_wall = one_pass(tracer)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        mismatch = tracer.root_mismatch(tracer.self_times())
        tracer.write(os.path.join(out_dir, "spans.tsv.gz"))
        print(f"traced pass {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s; "
              f"{len(tracer.spans)} spans; self-time sum error {mismatch:.2e} s")
        correct = failed == 0 and len(digests) == 1 and mismatch < 1e-6
        for name in sorted(values):
            print(f"  {name} = {values[name][0]} {values[name][1]}")
        print(result_line("per_layer", values, attempted, failed, correct))
        return 0

    while len(pass_times) < max(1, int(args.seconds // PASS_SECONDS[args.workload])):
        one_pass()

    percentile, tail_value = tail(job_times)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "job_s.p50": (statistics.median(job_times), "s"),
        "job_s.tail": (tail_value, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(pass_times)} passes of "
          f"{len(jobs)} jobs; failed_ratio {failed}/{attempted} = {failed / attempted} ratio")
    print(f"  job_s.tail is p{percentile} of {len(job_times)} job samples")
    for name, (value, unit) in values.items():
        print(f"  {name} = {value} {unit}")
    correct = failed == 0 and len(digests) == 1
    print(result_line("end_to_end", values, attempted, failed, correct))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
