"""Self-test of the benchmark harness at reduced operation sizes:

    python3 perfbench/selftest.py

It checks that
1. every end-to-end and per-layer metric of BENCHMARK.json is emitted,
   with its unit, by every workload;
2. a reference value perturbed by the test is reported as a failed
   operation, and the unperturbed operations still pass;
3. the count metrics repeat exactly across two traced runs.

Exits 0 when all checks hold and 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

import run

RUN = os.path.join(run.HERE, "run.py")
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")

# (workload, op key, how to spoil its reference value)
PERTURBATIONS = [
    ("p2-scan", "capacity Z^2 p=2 4:16:*2",
     lambda ref: ref["capacities"].__setitem__(
         1, ref["capacities"][1] * (1 + 1e-7))),
    ("p-descent", "capacity Z^2 p=3.0 R=8",
     lambda ref: ref.__setitem__("capacity", ref["capacity"] * (1 + 1e-3))),
    ("iso-profile", "iso H3 nmax=5 exhaustive",
     lambda ref: ref["boundary_sizes"].__setitem__(
         4, ref["boundary_sizes"][4] - 1)),
]


def run_small(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    problems = []
    if not result["correct"]:
        problems.append(f"{label}: run not correct")
    if got != want:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                        f"or units differ from BENCHMARK.json")
    return problems


def check_perturbations():
    caylex = run.import_caylex()
    import workloads
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    problems = []
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for workload, key, spoil in PERTURBATIONS:
            bad = copy.deepcopy(reference)
            spoil(bad[key])
            ctx = workloads.Context(caylex, workdir, 7, "small")
            records = run.run_pass(workloads.build_ops(workload, ctx), bad,
                                   caylex)
            failed = {r["op"] for r in records if r["problems"]}
            if failed != {key}:
                problems.append(f"perturbed {key!r}: failed ops "
                                f"{sorted(failed)}")
    return problems


def main() -> int:
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        problems += check_metrics(run_small(name, 0), bench["end_to_end"],
                                  f"{name} --trace 0")
        first, second = run_small(name, 1), run_small(name, 1)
        problems += check_metrics(first, bench["per_layer"],
                                  f"{name} --trace 1")
        for k in run.COUNT_METRICS:
            a, b = first["metrics"][k]["value"], second["metrics"][k]["value"]
            if a != b:
                problems.append(f"{name}: {k} {a} then {b}")
        print(f"{name}: metrics and counts checked", flush=True)
    problems += check_perturbations()
    print("perturbed references checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
