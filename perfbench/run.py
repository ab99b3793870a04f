"""caylex benchmark.

One workload per process:

    python3 perfbench/run.py --workload p2-scan --seed 1 --seconds 20 --trace 0

runs passes of the workload's operation list for about ``--seconds``
seconds, checks every result against its oracle, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.

All workloads, each in a fresh process, with a summary table:

    python3 perfbench/run.py --all --seed 1 [--trace 1]

``--all`` also runs the documented known-failure operations once, so the
p != 2 solver failure of ROADMAP.md section 3 shows in ``failed_frac``.

The benchmark imports caylex from ``src/`` next to this directory, reads
and writes only inside the checkout (scratch files go to ``.bench_work/``)
and is single-process and single-threaded apart from the short set-up
probes, which run one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = ["p2-scan", "p-descent", "iso-profile", "suites"]

# set-up is measured in this many fresh processes; the median is reported
SETUP_PROBES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

FUNCSPACE_OPS = ["norms", "laplacian", "pairing", "dirichlet_seminorm_pow",
                 "lp_norm", "power", "modulus", "truncate_min", "is_harmonic",
                 "harmonicity_via_pairing", "check_cocycle", "translate"]
SUITES = ["norms", "cocycle", "lemma31", "lemma41", "lemma52",
          "prop53-holder", "lemma61", "prop62", "maxprinciple"]
COUNTERS = ["cayley.vertices_built", "groups.multiply.calls",
            "dirichlet.linear.unknowns", "dirichlet.linear.nnz",
            "dirichlet.descent.iterations"]
SELF_TIMES = {"cayley.build_ball.self_s": ["cayley.build_ball"],
              "dirichlet.solve.self_s": ["dirichlet.solve"],
              "dirichlet.scan.self_s": ["dirichlet.parabolicity_scan",
                                        "dirichlet.royden_split"],
              "geometry.isoperimetric_profile.self_s":
                  ["geometry.isoperimetric_profile"],
              "cayley.vertex_boundary_elements.self_s":
                  ["cayley.vertex_boundary_elements"],
              "geometry.sobolev_constant.self_s": ["geometry.sobolev_constant"],
              "geometry.lemma61_check.self_s": ["geometry.lemma61_check"],
              "cli.main.self_s": ["cli.main"]}
CALLS = (["cayley.build_ball", "dirichlet.solve",
          "cayley.vertex_boundary_elements"]
         + [f"funcspace.{op}" for op in FUNCSPACE_OPS])

PER_LAYER = {**{name: "s" for name in SELF_TIMES},
             **{f"{name}.calls": "count" for name in CALLS},
             **{name: "count" for name in COUNTERS},
             "dirichlet.spsolve_s": "s",
             "funcspace.self_s": "s",
             **{f"verify.suite.{name}.s": "s" for name in SUITES},
             "trace.overhead_s": "s",
             "trace.span_coverage": "fraction"}
COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit == "count"]


def import_caylex():
    """Import caylex from the checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "caylex", "__init__.py")):
        sys.stderr.write(f"error: no caylex sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import caylex
    import caylex.cli                  # noqa: F401  (not loaded by caylex)
    import caylex.verify               # noqa: F401
    return caylex


# ---------------------------------------------------------------------------
# set-up

def setup_probe(workload: str, size: str) -> None:
    """Body of one set-up probe process: the imports and group
    construction that precede a workload's first timed operation."""
    import numpy                       # noqa: F401
    import scipy.sparse.linalg         # noqa: F401
    import_caylex()
    import workloads
    for spec in workloads.workload_groups(workload, size):
        workloads.make_group(spec)
    print("ready", flush=True)


def measure_setup(workload: str, size: str) -> list:
    """Seconds from process start to ready, in SETUP_PROBES fresh
    processes run one after another."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--size", size]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# passes

def run_pass(ops, reference, caylex, tracer=None):
    """Run every operation once.  Returns per-op records: seconds, problems
    and digest.  With a tracer, it is installed around each timed call
    only, so oracle work is never traced."""
    records = []
    for op in ops:
        problems, digest, result = [], None, None
        guard = install(tracer, caylex) if tracer else contextlib.nullcontext()
        try:
            with guard:
                t0 = time.perf_counter()
                try:
                    result = op.run()
                finally:
                    dt = time.perf_counter() - t0
        except Exception as exc:       # a failed operation; the run goes on
            problems.append(f"{type(exc).__name__}: {exc}")
        else:
            try:
                problems += op.check(result, reference.get(op.key))
                digest = op.digest(result)
            except Exception as exc:   # an oracle that cannot read the result
                problems.append(f"oracle: {type(exc).__name__}: {exc}")
        records.append({"op": op.key, "seconds": dt, "problems": problems,
                        "digest": digest})
    return records


def pass_wall(records) -> float:
    return sum(r["seconds"] for r in records)


def layer_metrics(tracer) -> dict:
    self_t, total, calls = tracer.self_time, tracer.total, tracer.calls
    m = {name: sum(self_t[s] for s in spans)
         for name, spans in SELF_TIMES.items()}
    m.update({f"{name}.calls": calls[name] for name in CALLS})
    m.update({name: tracer.counts[name] for name in COUNTERS})
    m["dirichlet.spsolve_s"] = total["dirichlet.spsolve"]
    m["funcspace.self_s"] = sum((v for k, v in self_t.items()
                                 if k.startswith("funcspace.")), 0.0)
    m.update({f"verify.suite.{name}.s": total[f"verify.suite.{name}"]
              for name in SUITES})
    return m


def median_op_wall(passes) -> float:
    """Sum over operations of each operation's median time over passes."""
    return sum(statistics.median(p[i]["seconds"] for p in passes)
               for i in range(len(passes[0])))


# ---------------------------------------------------------------------------
# provenance

def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, caylex) -> dict:
    import numpy as np
    import scipy
    blas_env = {k: os.environ.get(k) for k in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except Exception:                  # older numpy: no dict form
        blas = None
    return {"caylex_version": caylex.__version__, "git_commit": _git_commit(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "seed": args.seed, "argv": sys.argv,
            "blas": blas, "blas_thread_env": blas_env}


# ---------------------------------------------------------------------------

def run_workload(args) -> tuple:
    caylex = import_caylex()
    import workloads

    setup = measure_setup(args.workload, args.size)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = workloads.Context(caylex, workdir, args.seed, args.size)
        ops = workloads.build_ops(args.workload, ctx)
        plain, traced, tracers = [], [], []
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            plain.append(run_pass(ops, reference, caylex))
            if args.trace:
                tracers.append(Tracer())
                traced.append(run_pass(ops, reference, caylex, tracers[-1]))
            round_s = time.perf_counter() - t_round
            if time.perf_counter() - t_start + round_s > args.seconds:
                break
        extra = []
        if args.known_failures:
            extra = run_pass(workloads.known_failure_ops(args.workload, ctx),
                             reference, caylex)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    executed = [r for p in plain + traced for r in p] + extra
    failures = [r for r in executed if r["problems"]]
    mismatch = [f"{plain[0][i]['op']}: traced result differs"
                for t in traced for i, r in enumerate(t)
                if r["digest"] != plain[0][i]["digest"]]
    if args.trace:
        per_pass = [layer_metrics(tr) for tr in tracers]
        counts = [{k: m[k] for k in COUNT_METRICS} for m in per_pass]
        if any(c != counts[0] for c in counts):
            mismatch.append("count metrics differ between traced passes")
        metrics = {k: statistics.median(m[k] for m in per_pass)
                   for k in per_pass[0]}
        metrics.update(counts[0])
        metrics["trace.overhead_s"] = (median_op_wall(traced)
                                       - median_op_wall(plain))
        metrics["trace.span_coverage"] = statistics.median(
            tr.root_time() / pass_wall(p)
            for tr, p in zip(tracers, traced))
        units = PER_LAYER
        os.makedirs(WORK, exist_ok=True)
        tracers[-1].write(os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {"wall_s": median_op_wall(plain),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
    detail = {"workload": args.workload, "size": args.size,
              "trace": args.trace,
              "passes": len(plain), "traced_passes": len(traced),
              "setup_samples_s": setup,
              "op_seconds": {r["op"]: [p[i]["seconds"] for p in plain]
                             for i, r in enumerate(plain[0])},
              "failures": [{"op": r["op"], "problems": r["problems"]}
                           for r in failures],
              "mismatches": mismatch,
              "failed_frac": len(failures) / len(executed),
              "provenance": provenance(args, caylex)}
    result = {"correct": not failures and not mismatch,
              "attempted": len(executed), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, detail


def print_run(result, detail) -> None:
    for f in detail["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}")
    for m in detail["mismatches"]:
        print(f"MISMATCH {m}")
    print(f"{detail['workload']}: {detail['passes']} passes, "
          f"failed_frac {result['failed']}/{result['attempted']} = "
          f"{detail['failed_frac']:.4g}")
    for k, v in result["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"BENCH-{detail['workload']}-seed"
                              f"{detail['provenance']['seed']}-"
                              f"trace{detail['trace']}.json")
    with open(path, "w") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload in its own fresh process, then a summary table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--known-failures"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    print()
    for name, res in rows:
        cells = [f"{k} {v['value']:.4g} {v['unit']}"
                 for k, v in res["metrics"].items()
                 if args.trace == 0 or k.startswith("trace.")]
        cells.append(f"failed_frac {res['failed']}/{res['attempted']} "
                     f"= {res['failed'] / res['attempted']:.4g} fraction")
        print(f"{name:12s} " + " | ".join(cells))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full",
                    help="small: reduced operation sizes for the self-test")
    ap.add_argument("--known-failures", action="store_true",
                    help="also run the documented failing operations once")
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in a fresh process")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.size)
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    print_run(*run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
