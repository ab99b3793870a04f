"""The four benchmark workloads: their operations and the oracle that
checks each result.

Each workload loads different caylex layers:

* ``p2-scan``: ball building (``cayley``) and the p = 2 direct route of
  ``dirichlet`` (Python assembly plus ``spsolve``).  Capacity scans and
  Royden splits rebuild a ball at every radius.  Seeded harmonic
  extensions run the solver on prebuilt balls, so they build no ball.
* ``p-descent``: the FISTA descent of ``dirichlet`` through ``capacity``
  at p != 2, on small balls.  Inputs are fixed; the seed is not used.
* ``iso-profile``: the ``geometry`` subset enumeration and the
  ``groups.multiply`` calls behind ``vertex_boundary_elements``.  No
  solver work, tiny balls.  Inputs are fixed; the seed is not used.
* ``suites``: ``FormalSum`` arithmetic in ``funcspace``, the ``verify``
  suite loops and the ``cli`` commands that re-implement suites, each run
  with the workload seed.

Operation sizes are smaller than the scans quoted in ROADMAP.md so that one
pass of a workload takes a few seconds and a timed run holds several
passes.  Only converging operations were shrunk.  The documented p != 2
failure (Z^2, p = 1.5, R = 16, about 70 s) is a known-failure operation: it
is not part of a timed pass, and ``run.py --all`` runs it once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from caylex.cayley import (EXTERIOR, CayleyBall, SubsetView, build_ball,
                           vertex_boundary)
from caylex.groups import make_group

SIZES = ("full", "small")

# p = 2 results must match the seed-commit values to this relative error.
P2_REL_TOL = 1e-9
# The seed commit stops its descent when the free-coordinate gradient norm
# is at most DESCENT_GRAD_TOL * (1 + E).  For a convex energy,
# E(u) - E(u*) <= |g| |u - u*| <= |g| sqrt(n_free), because both u and the
# minimizer u* take values in [0, 1].  Any solver that stops on the same
# rule is within that distance of the optimum, so two such results differ
# by at most the same amount; the factor 2 absorbs (1 + E) versus
# (1 + E_ref) and values that stray slightly outside [0, 1].
DESCENT_GRAD_TOL = 1e-8
RANGE_SLACK = 1e-6
# The p = 2 solver accepts a relative linear residual of 1e-10 against the
# right-hand side b, and |b|_2 <= |S| |boundary data|_2; the oracle allows
# ten times that.
HARMONIC_RES_TOL = 1e-9


def descent_tolerance(energy_ref: float, n_free: int) -> float:
    return 2.0 * DESCENT_GRAD_TOL * (1.0 + energy_ref) * math.sqrt(n_free)


# ---------------------------------------------------------------------------
# operation sizes

P2_SCANS = {"full": [("Z^1", "4:64:*2"), ("Z^2", "8:128:*2"),
                     ("Z^3", "4:16:+4"), ("H3", "4:12:+4")],
            "small": [("Z^1", "4:16:*2"), ("Z^2", "4:16:*2"),
                      ("Z^3", "2:4"), ("H3", "2:4")]}
ROYDEN = {"full": ("F_2", "3:9"), "small": ("F_2", "3:5")}
BALL = {"full": ("F_2", 10), "small": ("F_2", 5)}
HARMONIC = {"full": [("Z^2", 64), ("H3", 12), ("F_2", 8)],
            "small": [("Z^2", 8), ("H3", 4), ("F_2", 4)]}
HARMONIC_DRAWS = 2
DESCENT = {"full": [("Z^1", 1.5, 64), ("Z^1", 3.0, 64), ("Z^2", 3.0, 16),
                    ("Z^2", 3.0, 32), ("Z^2", 3.0, 48), ("Z^3", 3.0, 7),
                    ("F_2", 1.5, 3), ("H3", 1.5, 3)],
           "small": [("Z^1", 1.5, 16), ("Z^1", 3.0, 16), ("Z^2", 3.0, 8),
                     ("F_2", 3.0, 4)]}
# ROADMAP.md section 3: SolverFailure after 500,000 iterations.
KNOWN_FAILURES = {"p-descent": [("Z^2", 1.5, 16)]}
ISO = {"full": [("Z^2", 9, "exhaustive"), ("H3", 8, "exhaustive"),
                ("Z^3", 500, "greedy")],
       "small": [("Z^2", 6, "exhaustive"), ("H3", 5, "exhaustive"),
                 ("Z^3", 40, "greedy")]}
SUITE_ARGS = {"full": {"verify": ["--suite", "all", "--workers", "1"],
                       "lemma61": ["--group", "Z^2"],
                       "pairing": ["--group", "H3"],
                       "sobolev": ["--group", "Z^3", "--d", "3"]},
              "small": {"verify": ["--suite", "norms", "--workers", "1"],
                        "lemma61": ["--group", "Z^2", "--samples", "50",
                                    "--scalar-samples", "1000"],
                        "pairing": ["--group", "H3", "--samples", "20"],
                        "sobolev": ["--group", "Z^3", "--d", "3",
                                    "--samples", "20"]}}


# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed call with its oracle.

    ``run`` is the timed call.  ``check(result, ref)`` returns a list of
    problems, empty when the result is correct.  ``record(result)`` gives
    the value stored in reference.json (None when the oracle needs none),
    and ``digest(result)`` a summary that must be identical between a
    traced and an untraced pass."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], List[str]]
    digest: Callable[[Any], str]
    record: Callable[[Any], Any] = lambda result: None


@dataclass
class Context:
    caylex: Any          # the caylex package; calls go through it, so
    workdir: str         # the tracer's patches are seen
    seed: int
    size: str = "full"


@dataclass
class CliRun:
    code: int
    stdout: str
    out: str

    def report(self):
        with open(self.out) as fh:
            return json.load(fh)


def _sha(obj) -> str:
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _cli_op(ctx: Context, key: str, argv: List[str], check, record=None) -> Op:
    out = os.path.join(ctx.workdir, _sha(key)[:16] + ".json")
    argv = argv + ["--out", out]

    def run():
        if os.path.exists(out):
            os.unlink(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = ctx.caylex.cli.main(argv)
        return CliRun(code, stdout.getvalue(), out)

    def checked(result: CliRun, ref):
        if result.code != 0:
            return [f"exit code {result.code}"]
        return check(result.report()["results"], ref, result.stdout)

    def digest(result: CliRun):
        body = result.report() if result.code == 0 else None
        return _sha([result.code, result.stdout, body])

    return Op(key, run, checked, digest,
              (lambda r: record(r.report()["results"])) if record else
              (lambda r: None))


def _need(ref, key):
    if ref is None:
        raise KeyError(f"no reference value for {key!r}")
    return ref


# ---------------------------------------------------------------------------
# p2-scan

def _capacity_scan_op(ctx, spec, radii):
    key = f"capacity {spec} p=2 {radii}"

    def check(res, ref, stdout):
        ref = _need(ref, key)
        caps = [e["capacity"] for e in res["entries"]]
        rs = [e["R"] for e in res["entries"]]
        problems = []
        if rs != ref["radii"]:
            return [f"radii {rs} != {ref['radii']}"]
        for R, c, c0 in zip(rs, caps, ref["capacities"]):
            if _rel_err(c, c0) > P2_REL_TOL:
                problems.append(f"R={R}: capacity {c!r} vs reference {c0!r}")
            if spec == "Z^1" and _rel_err(c, 4.0 / R) > P2_REL_TOL:
                problems.append(f"R={R}: capacity {c!r} vs closed form 4/R")
        if res["verdict"] != ref["verdict"]:
            problems.append(f"verdict {res['verdict']} != {ref['verdict']}")
        return problems

    def record(res):
        return {"radii": [e["R"] for e in res["entries"]],
                "capacities": [e["capacity"] for e in res["entries"]],
                "verdict": res["verdict"]}

    return _cli_op(ctx, key, ["capacity", "--group", spec, "--p", "2",
                              "--radii", radii], check, record)


def _royden_op(ctx, spec, radii):
    key = f"royden {spec} end-separating {radii}"

    def check(res, ref, stdout):
        ref = _need(ref, key)
        energies = [e["energy"] for e in res["entries"]]
        if len(energies) != len(ref["energies"]):
            return [f"{len(energies)} entries, reference has "
                    f"{len(ref['energies'])}"]
        problems = [f"R={e['R']}: energy {e['energy']!r} vs reference {e0!r}"
                    for e, e0 in zip(res["entries"], ref["energies"])
                    if _rel_err(e["energy"], e0) > P2_REL_TOL]
        if res["verdict"] != ref["verdict"]:
            problems.append(f"verdict {res['verdict']} != {ref['verdict']}")
        return problems

    def record(res):
        return {"energies": [e["energy"] for e in res["entries"]],
                "verdict": res["verdict"]}

    return _cli_op(ctx, key, ["royden", "--group", spec, "--source",
                              "end-separating", "--radii", radii],
                   check, record)


def _sphere_closed_form(spec: str, r: int) -> Optional[int]:
    if r == 0:
        return 1
    if spec == "Z^2":
        return 4 * r
    if spec == "F_2":
        return 4 * 3 ** (r - 1)
    return None


def _sphere_problems(spec, sizes):
    return [f"{spec} sphere {r} has {s} vertices, closed form {want}"
            for r, s in enumerate(sizes)
            for want in [_sphere_closed_form(spec, r)]
            if want is not None and s != want]


def _ball_op(ctx, spec, radius):
    key = f"ball {spec} R={radius}"

    def check(res, ref, stdout):
        sizes = res["sphere_sizes"]
        problems = _sphere_problems(spec, sizes)
        if len(sizes) != radius + 1 or res["n_vertices"] != sum(sizes):
            problems.append(f"{len(sizes)} spheres, {res['n_vertices']} "
                            f"vertices")
        return problems

    return _cli_op(ctx, key, ["ball", "--group", spec, "--radius",
                              str(radius)], check)


def _harmonic_op(ctx, ball, draw):
    spec, R = ball.group.name, ball.radius
    key = f"harmonic_extension {spec} R={R} draw={draw}"
    sphere = ball.sphere_indices(R)
    rng = np.random.default_rng([ctx.seed, R, draw])
    data = rng.normal(size=len(sphere))
    dirichlet = ctx.caylex.dirichlet
    problem = dirichlet.EnergyProblem(
        ball, 2.0, {int(j): float(v) for j, v in zip(sphere, data)}, "ball")

    def run():
        return ctx.caylex.dirichlet.harmonic_extension(problem)

    def check(report, ref):
        u = report.minimizer.values
        problems = _sphere_problems(spec, ball.sphere_sizes)
        if not np.array_equal(u[sphere], data):
            problems.append("boundary data not reproduced")
        inner = ball.interior_indices()
        nbr = ball.nbr[inner]
        if (nbr == EXTERIOR).any():
            return problems + ["interior vertex with an exterior neighbour"]
        lap = u[nbr].sum(axis=1) - nbr.shape[1] * u[inner]
        res = float(np.linalg.norm(lap))
        bound = HARMONIC_RES_TOL * nbr.shape[1] * float(np.linalg.norm(data))
        if not res <= bound:
            problems.append(f"interior Laplacian residual {res:.3e} > "
                            f"{bound:.3e}")
        return problems

    return Op(key, run, check, lambda rep: _sha(rep.minimizer.values))


def p2_scan_ops(ctx: Context) -> List[Op]:
    ops = [_capacity_scan_op(ctx, spec, radii)
           for spec, radii in P2_SCANS[ctx.size]]
    ops.append(_royden_op(ctx, *ROYDEN[ctx.size]))
    ops.append(_ball_op(ctx, *BALL[ctx.size]))
    for spec, R in HARMONIC[ctx.size]:
        ball = build_ball(make_group(spec), R)      # prebuilt, untimed
        ops.extend(_harmonic_op(ctx, ball, draw)
                   for draw in range(HARMONIC_DRAWS))
    return ops


# ---------------------------------------------------------------------------
# p-descent

def _descent_op(ctx, spec, p, R):
    key = f"capacity {spec} p={p} R={R}"
    group = make_group(spec)

    def run():
        return ctx.caylex.dirichlet.capacity(group, p, R)

    def n_free(minimizer):
        return int(minimizer.ball.interior.sum()) - 1

    def check(result, ref):
        ref = _need(ref, key)
        cap, minimizer, report = result
        u = minimizer.values
        ball = minimizer.ball
        problems = []
        if u[0] != 1.0 or np.any(u[ball.sphere_indices(R)] != 0.0):
            problems.append("pinned values changed")
        if u.min() < -RANGE_SLACK or u.max() > 1.0 + RANGE_SLACK:
            problems.append(f"minimizer leaves [0, 1]: [{u.min()}, {u.max()}]")
        tol = descent_tolerance(ref["capacity"], ref["n_free"])
        if not abs(cap - ref["capacity"]) <= tol:
            problems.append(f"capacity {cap!r} vs reference "
                            f"{ref['capacity']!r}, tolerance {tol:.2e}")
        if spec == "Z^1" and not abs(cap - 4.0 * R ** (1.0 - p)) <= tol:
            problems.append(f"capacity {cap!r} vs closed form 4R^(1-p)")
        return problems

    def record(result):
        cap, minimizer, _ = result
        return {"capacity": cap, "n_free": n_free(minimizer)}

    return Op(key, run, check,
              lambda result: _sha([result[0], result[2].iterations]), record)


def p_descent_ops(ctx: Context) -> List[Op]:
    return [_descent_op(ctx, *args) for args in DESCENT[ctx.size]]


def known_failure_ops(workload: str, ctx: Context) -> List[Op]:
    """Operations documented to fail at the seed commit; run once, outside
    the timed passes."""
    return [_descent_op(ctx, *args)
            for args in KNOWN_FAILURES.get(workload, [])]


# ---------------------------------------------------------------------------
# iso-profile

def _window(group, elements):
    """The S-closure of a finite set, indexed in the CayleyBall format
    (neighbour table with EXTERIOR marks), so that vertex_boundary applies
    to any subset of it."""
    elems = list(dict.fromkeys(elements))
    members = set(elems)
    inv = [group.inverse(g) for g in group.generators]
    elems += [y for y in dict.fromkeys(group.multiply(x, h)
                                      for x in elems for h in inv)
              if y not in members]
    index = {x: i for i, x in enumerate(elems)}
    nbr = np.array([[index.get(group.multiply(x, h), EXTERIOR) for h in inv]
                    for x in elems], dtype=np.int64)
    return CayleyBall(group, 0, elems, index, nbr,
                      np.zeros(len(elems), dtype=np.int64))


def _connected(window, idx) -> bool:
    """Connectivity of a vertex set through the window's neighbour table."""
    pos = np.full(len(window.elements), -1)
    pos[idx] = np.arange(len(idx))
    nbr = window.nbr[idx]
    rows = np.repeat(np.arange(len(idx)), nbr.shape[1])
    cols = np.where(nbr == EXTERIOR, -1, pos[np.clip(nbr, 0, None)]).ravel()
    keep = cols >= 0
    graph = sp.csr_matrix((np.ones(int(keep.sum())),
                           (rows[keep], cols[keep])), shape=(len(idx),) * 2)
    return connected_components(graph, directed=False)[0] == 1


def _iso_op(ctx, spec, nmax, strategy):
    key = f"iso {spec} nmax={nmax} {strategy}"
    group = make_group(spec)

    def check(res, ref, stdout):
        ref = _need(ref, key)
        entries = res["entries"]
        sizes = [e["boundary_size"] for e in entries]
        if [e["n"] for e in entries] != list(range(1, nmax + 1)):
            return ["record sizes are not 1..nmax"]
        if sizes != ref["boundary_sizes"]:
            return [f"minima {sizes} != reference {ref['boundary_sizes']}"]
        witnesses = [[group.parse_element(s) for s in e["witness"]]
                     for e in entries]
        window = _window(group, [x for w in witnesses for x in w])
        problems = []
        for e, w in zip(entries, witnesses):
            n = e["n"]
            idx = sorted({window.index[x] for x in w})
            if len(w) != n or len(idx) != n:
                problems.append(f"n={n}: witness has {len(idx)} elements")
            elif group.identity() not in w:
                problems.append(f"n={n}: witness misses the identity")
            elif not _connected(window, idx):
                problems.append(f"n={n}: witness is not connected")
            else:
                b = len(vertex_boundary(window, SubsetView.from_indices(
                    window, idx)))
                if b != e["boundary_size"]:
                    problems.append(f"n={n}: recomputed boundary {b} != "
                                    f"{e['boundary_size']}")
            if e["exact"] != (strategy == "exhaustive"):
                problems.append(f"n={n}: exact flag {e['exact']}")
        return problems

    def record(res):
        return {"boundary_sizes": [e["boundary_size"]
                                   for e in res["entries"]]}

    return _cli_op(ctx, key, ["iso", "--group", spec, "--nmax", str(nmax),
                              "--strategy", strategy], check, record)


def iso_profile_ops(ctx: Context) -> List[Op]:
    return [_iso_op(ctx, *args) for args in ISO[ctx.size]]


# ---------------------------------------------------------------------------
# suites

def _verify_op(ctx, argv):
    key = "verify " + " ".join(argv)
    names = (list(ctx.caylex.verify.SUITE_NAMES) if argv[1] == "all"
             else [argv[1]])

    def check(res, ref, stdout):
        lines = [ln for ln in stdout.splitlines() if ln.startswith("suite=")]
        got = [ln.split()[0][len("suite="):] for ln in lines]
        problems = [] if got == names else [f"suites {got} != {names}"]
        return problems + [f"not a pass line: {ln}" for ln in lines
                           if ln.split()[1] != "pass"]

    return _cli_op(ctx, key, ["verify", *argv, "--seed", str(ctx.seed)],
                   check)


def _field_op(ctx, command, argv, want):
    """A suite-style command whose JSON results must satisfy ``want``."""
    key = f"{command} " + " ".join(argv)

    def check(res, ref, stdout):
        return [f"{name} = {res.get(name)!r}" for name, ok in want.items()
                if not ok(res.get(name))]

    return _cli_op(ctx, key, [command, *argv, "--seed", str(ctx.seed)], check)


def suites_ops(ctx: Context) -> List[Op]:
    args = SUITE_ARGS[ctx.size]
    zero = lambda v: v == 0
    return [
        _verify_op(ctx, args["verify"]),
        _field_op(ctx, "lemma61", args["lemma61"],
                  {"violations": zero, "scalar_violations": zero}),
        _field_op(ctx, "pairing", args["pairing"],
                  {"holder_violations": zero,
                   "max_identity_residual": lambda v: v <= 1e-12}),
        _field_op(ctx, "sobolev", args["sobolev"],
                  {"violation_count": zero,
                   "exponent_identity_residual": lambda v: v <= 1e-10,
                   "constant": lambda v: v > 0}),
    ]


def build_ops(workload: str, ctx: Context) -> List[Op]:
    """The workload's operation list; balls the operations reuse are built
    here, before any timing."""
    if workload == "p2-scan":
        return p2_scan_ops(ctx)
    if workload == "p-descent":
        return p_descent_ops(ctx)
    if workload == "iso-profile":
        return iso_profile_ops(ctx)
    if workload == "suites":
        return suites_ops(ctx)
    raise ValueError(f"unknown workload {workload!r}")


def workload_groups(workload: str, size: str = "full") -> List[str]:
    """Group specs a workload builds before its first timed operation."""
    if workload == "p2-scan":
        specs = [s for s, _ in P2_SCANS[size]] + [ROYDEN[size][0],
                                                  BALL[size][0]]
        specs += [s for s, _ in HARMONIC[size]]
    elif workload == "p-descent":
        specs = [s for s, _, _ in DESCENT[size]]
    elif workload == "iso-profile":
        specs = [s for s, _, _ in ISO[size]]
    else:
        specs = ["Z^2", "Z^3", "F_2", "H3"]
    return sorted(set(specs))
