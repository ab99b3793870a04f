"""Command-line front end.

Subcommands: ball, capacity, royden, iso, sobolev, lemma61, pairing, verify.
lemma61 and pairing run verify's suites (lemma61; lemma52 and
prop53-holder) on one group and report their worst cases.

Each cmd_* takes the parsed flags and its group and returns an Outcome:
its results, CSV rows, stderr note and exit code.  main writes every
report, atomically (temp file + rename), as schema-versioned JSON whose
parameters are the parsed flags without --group, --out and --format, or
as flat CSV (one row per R or n) for plotting; sobolev, lemma61, pairing
and verify have no CSV form.  verify prints one line per suite and writes
its report only to --out.

Exit codes: 0 ok, 1 verification-suite failure, 2 usage error,
3 resource/budget exceeded, 4 solver failure.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Callable, List, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from . import __version__, dirichlet, geometry, verify
from .cayley import BallSizeError, build_ball, check_ball_size
from .groups import GroupModel, make_group

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_SOLVER = 4

SCHEMA_VERSION = 1
# commands whose reports have no flat CSV form, rejected before any work
_JSON_ONLY = ("sobolev", "lemma61", "pairing", "verify")


class UsageError(ValueError):
    pass


def parse_radii(spec: str, group: GroupModel) -> List[int]:
    """Radius schedules: `start:stop` (step 1), `start:stop:+step`,
    `start:stop:*factor` (geometric).  The group's ball of the last radius
    is checked against the vertex cap before the list is built."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"bad radii schedule {spec!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"bad radii schedule {spec!r}")
    if start < 1 or stop < start:
        raise UsageError(f"bad radii schedule {spec!r}")
    rule = parts[2] if len(parts) == 3 else "+1"
    try:
        if rule.startswith("*"):
            factor = int(rule[1:])
            if factor < 2:
                raise ValueError
            radii = [start]
            while radii[-1] * factor <= stop:
                radii.append(radii[-1] * factor)
        elif rule.startswith("+"):
            step = int(rule[1:])
            if step < 1:
                raise ValueError
            radii = range(start, stop + 1, step)
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad radii schedule rule {rule!r}")
    check_ball_size(group, radii[-1])
    return list(radii)


def _atomic_write(path: str, write: Callable[[TextIO], None]) -> None:
    """write(fh) into a temp file beside path, renamed onto path once the
    write returns; on any exception path is untouched and the temp file
    removed."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".caylex-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt_from_args(args) -> str:
    """--format, else by --out extension, else json."""
    return args.format or ("csv" if args.out and args.out.endswith(".csv")
                           else "json")


class Outcome(NamedTuple):
    """A command's results (None: no report), CSV rows, note and exit code."""
    results: object
    rows: Optional[List[dict]] = None
    note: Optional[str] = None
    code: int = EXIT_OK


# flags that say where and how a report is written, not what it reports
_NOT_PARAMETERS = ("command", "group", "out", "format")


def _key_text(key) -> str:
    """A dict key as json.dumps writes it: a str, or a scalar's text, quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _write_json(fh: TextIO, obj, indent: str = "\n") -> None:
    """json.dump(obj, fh, indent=2, sort_keys=True), byte for byte, one
    container at a time.  json writes every scalar and key; only a list
    of str is joined here, in one write, where json's own encoder writes
    each item and separator apart."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            fh.write("[]")
            return
        inner = indent + "  "
        if all(type(x) is str for x in obj):
            fh.write("[" + inner + ("," + inner).join(
                map(encode_basestring_ascii, obj)) + indent + "]")
        else:
            sep = "[" + inner
            for x in obj:
                fh.write(sep)
                _write_json(fh, x, inner)
                sep = "," + inner
            fh.write(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            fh.write(sep + _key_text(key) + ": ")
            _write_json(fh, value, inner)
            sep = "," + inner
        fh.write(indent + "}")
    else:
        fh.write(json.dumps(obj))


def _write_report(args, group_name: Optional[str], outcome: Outcome) -> None:
    """Streams the report or the CSV rows to --out (atomically) or stdout,
    never holding the whole text."""
    if _fmt_from_args(args) == "csv":
        def write(fh):
            writer = csv.DictWriter(fh, fieldnames=list(outcome.rows[0].keys()))
            writer.writeheader()
            writer.writerows(outcome.rows)
    else:
        report = {"schema_version": SCHEMA_VERSION, "command": args.command,
                  "group": group_name, "results": outcome.results,
                  "parameters": {k: v for k, v in vars(args).items()
                                 if k not in _NOT_PARAMETERS}}

        def write(fh):
            _write_json(fh, report)
            fh.write("\n")
    if args.out:
        _atomic_write(args.out, write)
    else:
        write(sys.stdout)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ball(args, group) -> Outcome:
    ball = build_ball(group, args.radius)
    results = {"radius": ball.radius, "n_vertices": ball.n_vertices,
               "sphere_sizes": ball.sphere_sizes}
    if args.neighbors:
        results["elements"] = [group.format_element(x) for x in ball.elements]
        results["neighbor_table"] = ball.nbr.tolist()
    rows = [{"r": r, "sphere_size": s} for r, s in enumerate(ball.sphere_sizes)]
    return Outcome(results, rows,
                   f"{group.name} B_{args.radius}: {ball.n_vertices} vertices")


def cmd_capacity(args, group) -> Outcome:
    scan = dirichlet.parabolicity_scan(group, args.p, args.radii)
    entries = [{"R": R, "capacity": c, "iterations": rep.iterations,
                "residual": rep.residual, "solver": rep.solver}
               for R, c, rep in zip(args.radii, scan.capacities, scan.reports)]
    results = {"group": group.name, "p": scan.p, "entries": entries,
               "verdict": scan.verdict}
    rows = [{k: e[k] for k in ("R", "capacity", "iterations", "residual")}
            for e in entries]
    return Outcome(results, rows, f"{group.name} p={args.p}: verdict {scan.verdict}")


def cmd_royden(args, group) -> Outcome:
    rep = dirichlet.royden_split(group, args.source, args.radii,
                                 damping=args.damping)
    entries = [{"R": e.radius, "energy": e.energy, "sup": e.sup, "inf": e.inf}
               for e in rep.entries]
    results = {"source": rep.source, "entries": entries,
               "verdict": rep.verdict}
    return Outcome(results, entries,
                   f"{group.name} source={args.source}: verdict {rep.verdict}")


def _sorted_witness_names(group, records) -> List[List[str]]:
    """Each record's witness as its sorted formatted names, each element
    formatted once.  Nested witnesses (PrefixSets of one order) extend one
    sorted list by the new elements of each record."""
    fmt = group.format_element
    first = records[0].witness if records else None
    if isinstance(first, geometry.PrefixSet) and all(
            getattr(r.witness, "order", None) is first.order for r in records):
        names: List[str] = []
        out = []
        for r in records:
            for x in first.order[len(names):r.n]:
                bisect.insort(names, fmt(x))
            out.append(names[:])
        return out
    table = {x: fmt(x) for x in set().union(*(r.witness for r in records))}
    return [sorted(map(table.__getitem__, r.witness)) for r in records]


def cmd_iso(args, group) -> Outcome:
    profile = geometry.isoperimetric_profile(group, args.nmax, args.strategy)
    entries = [{"n": r.n, "boundary_size": r.boundary_size,
                "exact": r.exact, "witness": w}
               for r, w in zip(profile.records,
                               _sorted_witness_names(group, profile.records))]
    results = {"strategy": profile.strategy, "entries": entries,
               "truncated_at": profile.truncated_at}
    return Outcome(results, [{k: e[k] for k in ("n", "boundary_size", "exact")}
                             for e in entries])


def cmd_sobolev(args, group) -> Outcome:
    profile = geometry.isoperimetric_profile(group, args.nmax, args.strategy)
    isd = geometry.check_ISd(profile, args.d)
    ball = build_ball(group, 8)
    test_set = geometry.sobolev_test_set(group, profile, args.samples,
                                         np.random.default_rng(args.seed), ball)
    rep = geometry.sobolev_constant(group, args.d, test_set)
    results = {"d": args.d, "constant": rep.constant,
               "maximizer": rep.maximizer_kind, "samples": rep.samples,
               "isd_constant": isd.constant, "isd_verdict": isd.verdict}
    if args.d > 2:
        rng = np.random.default_rng(args.seed + 1)
        verification = [geometry.random_nonnegative(ball, rng)
                        for _ in range(min(args.samples, 200))]
        done = geometry.sobolev_p2(rep, verification)
        results.update({"cprime": done.cprime,
                        "violation_count": done.violation_count,
                        "worst_margin": done.worst_margin,
                        "exponent_identity_residual":
                            done.exponent_identity_residual})
    return Outcome(results, note=f"{group.name} d={args.d}: C = {rep.constant:.6g}")


def cmd_lemma61(args, group) -> Outcome:
    res = verify.suite_lemma61(args.seed, args.samples, args.scalar_samples,
                               [args.group], args.t)
    results = {"samples": args.samples, "scalar_samples": args.scalar_samples,
               **res.stats}
    return Outcome(results, note=f"{group.name}: {res.stats['violations']} "
                                 f"violations / {args.samples}",
                   code=EXIT_OK if res.passed else EXIT_SUITE_FAILURE)


def cmd_pairing(args, group) -> Outcome:
    suites = [verify.suite_lemma52(args.seed, args.samples, [args.group]),
              verify.suite_prop53_holder(args.seed, args.samples, [args.group],
                                         [args.p])]
    results = {"p": args.p, "samples": args.samples,
               **suites[0].stats, **suites[1].stats}
    return Outcome(results, code=EXIT_OK if all(r.passed for r in suites)
                   else EXIT_SUITE_FAILURE)


def cmd_verify(args, group) -> Outcome:
    names = list(verify.SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, args.seed, args.workers)
    for res in results:
        print(res.line())
    payload = [{"suite": r.name, "passed": r.passed, "checked": r.checked,
                "failures": r.failures} for r in results]
    return Outcome(payload if args.out else None,
                   code=EXIT_OK if all(r.passed for r in results)
                   else EXIT_SUITE_FAILURE)


# ---------------------------------------------------------------------------
# argument types: out-of-range values are usage errors (exit 2)

def _number_in(cast, ok, what: str):
    """An argument type: cast(text) where ok holds (never for NaN)."""
    def parse(text: str):
        try:
            x = cast(text)
        except ValueError:
            x = math.nan
        if not ok(x):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return x
    return parse


# p = 1 is left out: its conjugate exponent is infinite
_p_value = _number_in(float, lambda p: 1.0 < p <= 16.0, "p must lie in (1, 16]")
# q is computed as the Hoelder suite computes it
_pairing_p = _number_in(float, lambda p: 1.0 < p <= 16.0 and p / (p - 1.0) <= 16.0,
                        "p must lie in (1, 16] and its conjugate q = p/(p - 1) "
                        "must be at most 16")
_t_value = _number_in(float, lambda t: 2.0 <= t < math.inf,
                      "t must be finite and >= 2")
# damping >= 1 makes the end-separating source unbounded
_damping = _number_in(float, lambda d: 0.0 <= d < 1.0,
                      "damping must lie in [0, 1)")
# check_ISd and sobolev_constant need d > 1
_d_value = _number_in(float, lambda d: 1.0 < d < math.inf,
                      "d must be finite and > 1")
_nonnegative_int = _number_in(int, lambda n: n >= 0,
                              "must be a non-negative integer")
_positive_int = _number_in(int, lambda n: n >= 1, "must be a positive integer")


def _out_path(text: str) -> str:
    d = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(d):
        raise argparse.ArgumentTypeError(f"no such directory: {d}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The caylex parser, built once per process; main looks each
    command's cmd_* function up by name when it runs."""
    parser = argparse.ArgumentParser(
        prog="caylex",
        description="Numerical discrete potential theory on finitely "
                    "generated groups.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, radii=False):
        p.add_argument("--group", required=True,
                       help="group spec: Z^d, F_k, or H3")
        p.add_argument("--out", "-o", type=_out_path,
                       help="output path (atomic write)")
        p.add_argument("--format", choices=["json", "csv"],
                       help="default: by --out extension, else json")
        if radii:
            p.add_argument("--radii", required=True,
                           help="schedule start:stop[:*factor|:+step]")

    p = sub.add_parser("ball", help="enumerate a Cayley ball")
    common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--neighbors", action="store_true",
                   help="include the (large) neighbor table")

    p = sub.add_parser("capacity", help="p-capacity scan of the identity")
    common(p, radii=True)
    p.add_argument("--p", type=_p_value, default=2.0)

    p = sub.add_parser("royden", help="harmonic-extension energy trends")
    common(p, radii=True)
    p.add_argument("--source", required=True,
                   choices=["green-like", "coordinate", "end-separating",
                            "constant"])
    p.add_argument("--damping", type=_damping, default=0.5)

    p = sub.add_parser("iso", help="isoperimetric profile")
    common(p)
    p.add_argument("--nmax", type=_positive_int, required=True)
    p.add_argument("--strategy", default="exhaustive",
                   choices=sorted(geometry._STRATEGIES))

    p = sub.add_parser("sobolev", help="empirical Sobolev constants")
    common(p)
    p.add_argument("--d", type=_d_value, required=True)
    p.add_argument("--samples", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=_positive_int, default=6)
    p.add_argument("--strategy", default="exhaustive",
                   choices=sorted(geometry._STRATEGIES))

    p = sub.add_parser("lemma61", help="the lemma61 suite on one group")
    common(p)
    p.add_argument("--t", type=_t_value, default=None,
                   help="fixed exponent; default draws t from {2, 2.5, 3}")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--scalar-samples", type=_nonnegative_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pairing",
                       help="the lemma52 and prop53-holder suites on one group")
    common(p)
    p.add_argument("--p", type=_pairing_p, default=2.0)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run a bundled verification suite")
    p.add_argument("--suite", required=True,
                   help="one of %s or 'all'" % ", ".join(verify.SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", "-o", type=_out_path)
    p.set_defaults(format=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command in _JSON_ONLY and _fmt_from_args(args) == "csv":
            raise UsageError(f"{args.command} has no CSV form")
        group = make_group(args.group) if "group" in args else None
        if "radii" in args:
            args.radii = parse_radii(args.radii, group)
        outcome = globals()[f"cmd_{args.command}"](args, group)
        if outcome.results is not None:
            _write_report(args, None if group is None else group.name, outcome)
        if outcome.note:
            print(outcome.note, file=sys.stderr)
        return outcome.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BallSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (dirichlet.SolverFailure, dirichlet.NullSequenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
