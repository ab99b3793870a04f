import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caylex import cli, dirichlet, geometry, verify
from caylex.cayley import BallSizeError, build_ball
from caylex.cli import (EXIT_OK, EXIT_RESOURCE, EXIT_SOLVER, EXIT_SUITE_FAILURE,
                        EXIT_USAGE, UsageError, main, parse_radii)
from caylex.groups import make_group

try:
    from importlib.resources import files
    SCHEMA = json.loads(files("caylex").joinpath("schema.json").read_text())
except Exception:   # pragma: no cover
    SCHEMA = None


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "caylex.cli", *args],
                          capture_output=True, **kw)


def test_parse_radii():
    z1 = make_group("Z^1")
    assert parse_radii("3:6", z1) == [3, 4, 5, 6]
    assert parse_radii("4:64:*2", z1) == [4, 8, 16, 32, 64]
    assert parse_radii("4:20:+8", z1) == [4, 12, 20]
    assert parse_radii("5:5", z1) == [5]
    for bad in ["", "4", "4:2", "0:5", "4:8:x2", "4:8:*1", "4:8:+0", "a:b"]:
        with pytest.raises(UsageError):
            parse_radii(bad, z1)


def test_ball_json(tmp_path):
    out = tmp_path / "ball.json"
    assert main(["ball", "--group", "Z^3", "--radius", "3",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["results"]["n_vertices"] == 63
    assert report["results"]["sphere_sizes"] == [1, 6, 18, 38]
    jsonschema.validate(report, SCHEMA)


def test_unknown_family_exit_code():
    proc = run_cli(["ball", "--group", "Q5", "--radius", "2"])
    assert proc.returncode == EXIT_USAGE
    assert b"unknown family" in proc.stderr


def test_usage_error_on_bad_subcommand():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == EXIT_USAGE


def test_capacity_json_schema_and_values(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["capacity", "--group", "Z^1", "--p", "2",
                 "--radii", "4:16:*2", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    entries = report["results"]["entries"]
    assert [e["R"] for e in entries] == [4, 8, 16]
    assert entries[0]["capacity"] == pytest.approx(1.0, rel=1e-9)
    assert all(e["residual"] <= 1e-10 for e in entries)


def test_capacity_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["capacity", "--group", "Z^1", "--p", "2",
                 "--radii", "4:8:*2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("R,capacity")
    assert len(lines) == 3


def test_bad_radii_exit_code():
    proc = run_cli(["capacity", "--group", "Z^1", "--p", "2",
                    "--radii", "8:4"])
    assert proc.returncode == EXIT_USAGE


def test_vertex_cap_exit_code():
    proc = run_cli(["ball", "--group", "F_2", "--radius", "12"],
                   env={**os.environ, "CAYLEX_MAX_VERTICES": "1000"})
    assert proc.returncode == EXIT_RESOURCE
    assert b"vertex cap" in proc.stderr


def test_capacity_past_the_cap_fails_before_any_solve(monkeypatch, capsys):
    """Z^1 reaches the 5e6 cap at R = 2.5e6: the scan refuses |B_3000000|
    before it solves a radius or builds a ball."""
    monkeypatch.delenv("CAYLEX_MAX_VERTICES", raising=False)
    monkeypatch.setattr(dirichlet, "_minimize",
                        lambda q, p: pytest.fail("a radius was solved"))
    monkeypatch.setattr(dirichlet, "build_ball",
                        lambda *a, **k: pytest.fail("a ball was built"))
    assert main(["capacity", "--group", "Z^1", "--radii",
                 "1:3000000"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "error: ball Z^1 R=3000000 exceeds vertex cap 5000000; lower R or "
        "raise CAYLEX_MAX_VERTICES\n")


@pytest.mark.parametrize("command", [["capacity"], [
    "royden", "--source", "constant"]])
def test_radii_past_the_cap_build_no_schedule(command, monkeypatch, capsys):
    """The cap is checked on the schedule's last radius before the list of
    radii is built: 3e6 radii would hold about 100 MB."""
    monkeypatch.delenv("CAYLEX_MAX_VERTICES", raising=False)
    tracemalloc.start()
    try:
        code = main([*command, "--group", "Z^1", "--radii", "1:3000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    assert peak < 10 * 2 ** 20
    assert "exceeds vertex cap 5000000" in capsys.readouterr().err


def test_parse_radii_checks_the_cap_on_the_last_radius(monkeypatch):
    z1 = make_group("Z^1")
    monkeypatch.setenv("CAYLEX_MAX_VERTICES", str(z1.ball_size(20)))
    assert parse_radii("1:20", z1) == list(range(1, 21))
    assert parse_radii("4:22:+8", z1) == [4, 12, 20]
    assert parse_radii("5:39:*2", z1) == [5, 10, 20]
    for spec in ["1:21", "4:28:+8", "5:40:*2"]:
        with pytest.raises(BallSizeError, match="Z\\^1 R=(21|28|40) exceeds"):
            parse_radii(spec, z1)
    assert parse_radii("1:64", make_group("H3")) == list(range(1, 65))


def test_royden_json(tmp_path):
    out = tmp_path / "trend.json"
    assert main(["royden", "--group", "Z^2", "--source", "constant",
                 "--radii", "3:5", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["results"]["verdict"] == "harmonic-part-vanishing"


def test_iso_csv(tmp_path):
    out = tmp_path / "iso.csv"
    assert main(["iso", "--group", "Z^2", "--nmax", "5",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,boundary_size,exact"
    assert lines[1].startswith("1,1,")


def test_sobolev_json(tmp_path):
    out = tmp_path / "sob.json"
    assert main(["sobolev", "--group", "Z^3", "--d", "3", "--samples", "30",
                 "--nmax", "4", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    res = report["results"]
    assert res["cprime"] == pytest.approx(8.0 * res["constant"])
    assert res["violation_count"] == 0


def test_lemma61_and_pairing_commands(tmp_path):
    assert main(["lemma61", "--group", "Z^2", "--samples", "50",
                 "--scalar-samples", "1000",
                 "--out", str(tmp_path / "l.json")]) == EXIT_OK
    assert main(["pairing", "--group", "F_2", "--samples", "20",
                 "--out", str(tmp_path / "p.json")]) == EXIT_OK
    for name in ("l.json", "p.json"):
        jsonschema.validate(json.loads((tmp_path / name).read_text()), SCHEMA)


def test_thin_commands_report_suite_stats(tmp_path):
    """lemma61 and pairing report exactly the stats of verify's suites run
    on the one group with the same seed."""
    out = tmp_path / "l.json"
    assert main(["lemma61", "--group", "H3", "--samples", "30", "--t", "2.5",
                 "--scalar-samples", "500", "--seed", "4",
                 "--out", str(out)]) == EXIT_OK
    suite = verify.suite_lemma61(4, 30, 500, ["H3"], 2.5)
    assert json.loads(out.read_text())["results"] == \
        {"samples": 30, "scalar_samples": 500, **suite.stats}
    out = tmp_path / "p.json"
    assert main(["pairing", "--group", "Z^3", "--samples", "25", "--p", "3",
                 "--seed", "4", "--out", str(out)]) == EXIT_OK
    identity = verify.suite_lemma52(4, 25, ["Z^3"])
    holder = verify.suite_prop53_holder(4, 25, ["Z^3"], [3.0])
    assert json.loads(out.read_text())["results"] == \
        {"p": 3.0, "samples": 25, **identity.stats, **holder.stats}


def test_thin_commands_exit_1_on_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(geometry, "lemma61_check",
                        lambda alpha, t: geometry.PowerEstimateResult(1.0, 0.5, -0.5))
    out = tmp_path / "l.json"
    assert main(["lemma61", "--group", "Z^2", "--samples", "5",
                 "--scalar-samples", "10", "--out", str(out)]) == EXIT_SUITE_FAILURE
    assert json.loads(out.read_text())["results"]["violations"] == 5
    out = tmp_path / "p.json"
    with monkeypatch.context() as m:
        m.setattr(verify, "laplacian", lambda alpha: 3.0 * alpha)
        assert main(["pairing", "--group", "Z^2", "--samples", "5",
                     "--out", str(out)]) == EXIT_SUITE_FAILURE
        assert json.loads(out.read_text())["results"]["max_identity_residual"] > 1e-12
    monkeypatch.setattr(verify, "dirichlet_seminorm_pow", lambda alpha, p: 0.0)
    assert main(["pairing", "--group", "Z^2", "--samples", "5",
                 "--out", str(out)]) == EXIT_SUITE_FAILURE
    assert json.loads(out.read_text())["results"]["holder_violations"] > 0


@pytest.mark.parametrize("argv,cap", [
    (["pairing", "--group", "Z^2", "--p", "1"], None),
    (["capacity", "--group", "Z^1", "--radii", "4:8", "--p", "40"], None),
    (["lemma61", "--group", "Z^2", "--samples", "0"], None),
    (["pairing", "--group", "Z^2", "--samples", "0"], None),
    (["iso", "--group", "Z^2", "--nmax", "0"], None),
    (["iso", "--group", "Z^2", "--nmax", "-3"], None),
    (["sobolev", "--group", "Z^3", "--d", "3", "--nmax", "0"], None),
    (["ball", "--group", "Z^2", "--radius", "2", "--out", "MISSING/x.json"], None),
    (["ball", "--group", "Z^2", "--radius", "2"], "-5"),
    (["ball", "--group", "Z^2", "--radius", "2"], "abc"),
    (["pairing", "--group", "Z^2", "--p", "1.01"], None),
    (["sobolev", "--group", "Z^3", "--d", "3", "--samples", "0"], None),
    (["sobolev", "--group", "Z^3", "--d", "3", "--samples", "-1"], None),
    (["sobolev", "--group", "Z^3", "--d", "nan"], None),
    (["sobolev", "--group", "Z^3", "--d", "1"], None),
    (["sobolev", "--group", "Z^3", "--d", "-1"], None),
    (["lemma61", "--group", "Z^2", "--scalar-samples", "-1"], None),
    (["lemma61", "--group", "Z^2", "--t", "nan"], None),
    (["lemma61", "--group", "Z^2", "--t", "inf"], None),
    (["lemma61", "--group", "Z^2", "--t", "1.5"], None),
    (["royden", "--group", "F_2", "--source", "end-separating", "--radii", "3:4",
      "--damping", "nan"], None),
    (["royden", "--group", "F_2", "--source", "end-separating", "--radii", "3:4",
      "--damping", "2"], None),
    (["royden", "--group", "F_2", "--source", "end-separating", "--radii", "3:4",
      "--damping", "1"], None),
    (["royden", "--group", "F_2", "--source", "end-separating", "--radii", "3:4",
      "--damping", "-0.1"], None),
    (["verify", "--suite", "norms", "--workers", "0"], None),
    (["ball", "--group", "Z^2", "--radius", "2", "--out", "EXISTING"], None),
])
def test_bad_input_is_a_usage_error(argv, cap, tmp_path, monkeypatch, capsys):
    """Out-of-range flags, a missing output directory, an --out that is a
    directory and a bad vertex cap exit 2 with an error line (an exception
    would fail the test)."""
    argv = [a.replace("MISSING", str(tmp_path / "missing"))
            .replace("EXISTING", str(tmp_path)) for a in argv]
    if cap is not None:
        monkeypatch.setenv("CAYLEX_MAX_VERTICES", cap)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err
    if cap is not None:
        assert "CAYLEX_MAX_VERTICES" in err


def test_range_errors_name_the_value(tmp_path, capsys):
    # p = 16/15 rounds to q = 16.000000000000004, past the library's 16
    for argv, named in [(["pairing", "--p", repr(16 / 15)], "conjugate q"),
                        (["lemma61", "--scalar-samples", "-1"], "--scalar-samples"),
                        (["lemma61", "--t", "nan"], "--t"),
                        (["sobolev", "--d", "nan"], "--d"),
                        (["royden", "--source", "end-separating", "--radii", "3:4",
                          "--damping", "2"], "--damping")]:
        assert main([*argv, "--group", "Z^2"]) == EXIT_USAGE
        assert named in capsys.readouterr().err
    assert main(["pairing", "--group", "Z^2", "--p", "1.07", "--samples", "5",
                 "--out", str(tmp_path / "p.json")]) == EXIT_OK


@pytest.mark.parametrize("argv,module,compute", [
    (["sobolev", "--group", "Z^3", "--d", "3"], geometry, "isoperimetric_profile"),
    (["lemma61", "--group", "Z^2"], verify, "suite_lemma61"),
    (["pairing", "--group", "Z^2"], verify, "suite_lemma52"),
], ids=["sobolev", "lemma61", "pairing"])
@pytest.mark.parametrize("fmt", [["--format", "csv"], ["--out", "r.csv"]],
                         ids=["format", "out"])
def test_json_only_commands_reject_csv_before_any_work(argv, module, compute,
                                                       fmt, tmp_path,
                                                       monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{compute} ran before the format was checked")

    monkeypatch.setattr(module, compute, unreachable)
    monkeypatch.chdir(tmp_path)
    assert main(argv + fmt) == EXIT_USAGE
    assert f"error: {argv[0]} has no CSV form" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_verify_rejects_a_csv_out_before_any_work(tmp_path, monkeypatch,
                                                  capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("run_suites ran before the format was checked")

    monkeypatch.setattr(verify, "run_suites", unreachable)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "norms", "--out", "v.csv"]) == EXIT_USAGE
    assert "error: verify has no CSV form" in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()


def test_sobolev_builds_each_ball_once(tmp_path, monkeypatch):
    """The profile's ball and one B_8, shared by the test set and the
    verification functions, in the command and in the prop62 suite."""
    built = []

    def counted(group, radius, *args, **kwargs):
        built.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    for module in (cli, geometry, verify):
        monkeypatch.setattr(module, "build_ball", counted)
    assert main(["sobolev", "--group", "Z^3", "--d", "3", "--samples", "5",
                 "--out", str(tmp_path / "s.json")]) == EXIT_OK
    assert built == [5, 8]
    built.clear()
    assert verify.suite_prop62(1).passed
    assert built == [5, 8]


def test_damping_and_t_in_range_run(tmp_path):
    assert main(["royden", "--group", "F_2", "--source", "end-separating",
                 "--radii", "3:4", "--damping", "0", "--out",
                 str(tmp_path / "r.json")]) == EXIT_OK
    assert main(["lemma61", "--group", "Z^2", "--t", "2", "--samples", "5",
                 "--scalar-samples", "10", "--out", str(tmp_path / "l.json")]) == EXIT_OK


def test_capacity_solver_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(dirichlet, "NEWTON_MAX_ITER", 1)
    assert main(["capacity", "--group", "Z^2", "--p", "3", "--radii", "8:8"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "error: capacity of Z^2 at p=3.0, R=8: Newton did not converge in 1 " in err


def test_royden_solver_failure_names_the_radius(monkeypatch, capsys):
    monkeypatch.setattr(dirichlet, "BAND_MAX_FILL", 0)     # every system on CG
    monkeypatch.setattr(dirichlet, "LU_MAX_UNKNOWNS", 0)
    monkeypatch.setattr(dirichlet, "_solve_spd",
                        lambda L, b: np.full(len(b), 7.0))
    assert main(["royden", "--group", "F_2", "--source", "end-separating",
                 "--radii", "3:4"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "error: royden split of F_2 at R=3: linear solve residual " in err


# one run of each command and the parameters its report must record: the
# parsed flags, without --group, --out and --format
COMMAND_PARAMETERS = [
    (["ball", "--group", "Z^2", "--radius", "2"],
     {"radius": 2, "neighbors": False}),
    (["capacity", "--group", "Z^1", "--radii", "4:8:*2"],
     {"p": 2.0, "radii": [4, 8]}),
    (["royden", "--group", "Z^2", "--source", "constant", "--radii", "3:4"],
     {"source": "constant", "radii": [3, 4], "damping": 0.5}),
    (["iso", "--group", "Z^2", "--nmax", "4"],
     {"nmax": 4, "strategy": "exhaustive"}),
    (["sobolev", "--group", "Z^2", "--d", "2", "--samples", "5", "--nmax", "3"],
     {"d": 2.0, "samples": 5, "seed": 0, "nmax": 3, "strategy": "exhaustive"}),
    (["lemma61", "--group", "Z^2", "--samples", "5", "--scalar-samples", "10"],
     {"t": None, "samples": 5, "seed": 0, "scalar_samples": 10}),
    (["pairing", "--group", "Z^2", "--samples", "5"],
     {"p": 2.0, "samples": 5, "seed": 0}),
    (["verify", "--suite", "norms", "--seed", "3"],
     {"suite": "norms", "seed": 3, "workers": 1}),
]


@pytest.mark.parametrize("argv,want", COMMAND_PARAMETERS,
                         ids=[a[0] for a, _ in COMMAND_PARAMETERS])
def test_report_parameters_are_the_parsed_flags(argv, want, tmp_path):
    """Every command's JSON report validates against the schema and records
    exactly its flags, with their parsed types (JSON false is not 0, 2.0
    is not 2)."""
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == argv[0]
    assert json.dumps(report["parameters"], sort_keys=True) == \
        json.dumps(want, sort_keys=True)


def test_verify_single_suite(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "norms", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["results"][0]["passed"] is True


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "bogus"]) == EXIT_USAGE


def test_determinism_across_runs_bytes(tmp_path):
    outs = []
    for _ in range(2):
        proc = run_cli(["capacity", "--group", "Z^1", "--p", "2",
                        "--radii", "4:16:*2"])
        assert proc.returncode == EXIT_OK
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "ball.json"
    main(["ball", "--group", "Z^2", "--radius", "2", "--out", str(out)])
    leftovers = [p for p in tmp_path.iterdir() if p.name != "ball.json"]
    assert leftovers == []


@pytest.mark.parametrize("argv", [a for a, _ in COMMAND_PARAMETERS],
                         ids=[a[0] for a, _ in COMMAND_PARAMETERS])
def test_streamed_report_bytes(argv, tmp_path, capsys):
    """A report streamed to --out is the text json.dumps gives for it, and
    the same bytes go to stdout without --out (verify prints its suite
    lines there first)."""
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if argv[0] != "verify":
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == text
    else:
        assert lines.count("\n") == 1


_json_floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324])
_json_scalars = st.none() | st.booleans() | st.integers() | _json_floats | st.text()
_json_trees = st.recursive(
    _json_scalars | _json_floats.map(np.float64) | st.lists(st.text())
    | st.lists(st.integers() | st.booleans()),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text(), kids)
                  | st.dictionaries(st.integers(), kids)
                  | st.dictionaries(_json_floats, kids)
                  | st.dictionaries(st.booleans(), kids)
                  | st.dictionaries(st.none(), kids)),
    max_leaves=40)


def _written(obj) -> str:
    buf = io.StringIO()
    cli._write_json(buf, obj)
    return buf.getvalue()


@settings(max_examples=400, deadline=None)
@given(_json_trees)
def test_report_writer_matches_json_dumps(obj):
    """Dicts with str, int, float, bool and None keys, lists and tuples
    (empty ones too), non-ASCII and control characters, ints with bools
    among them, floats and numpy float64s with their special values, and
    None: the report writer gives json.dumps's bytes."""
    assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    object(), {"a": [1, 2, object()]}, [np.int64(3)], {"s": {1, 2}},
    {(1, 2): 3}, {1: "int key", "a": "str key"}, [[1], "x", b"bytes"],
], ids=["object", "nested-object", "numpy-int", "set", "tuple-key",
        "mixed-keys", "bytes"])
def test_report_writer_rejects_non_json_values(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _written(obj)


def test_commands_are_looked_up_when_main_runs(monkeypatch, capsys):
    """The parser is built once per process, and main calls the cmd_*
    function the module holds when it runs: a patch made after the parser
    was built is the function called."""
    assert cli.build_parser() is cli.build_parser()
    assert main(["iso", "--group", "Z^1", "--nmax", "2"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_iso",
                        lambda args, group: cli.Outcome({"patched": True}))
    assert main(["iso", "--group", "Z^1", "--nmax", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"] == {"patched": True}


@pytest.mark.parametrize("fmt,rows,results,error", [
    ("json", None, {"a": list(range(5000)), "z": object()}, TypeError),
    ("csv", [{"r": k} for k in range(5000)] + [{"q": 1}], {}, None),
], ids=["json", "csv"])
def test_failed_report_write_keeps_the_old_file(fmt, rows, results, error,
                                                monkeypatch, tmp_path):
    """A report that fails part way through serializing leaves an existing
    --out file as it was and no temp file behind."""
    out = tmp_path / f"r.{fmt}"
    out.write_text("old report\n")
    monkeypatch.setattr(cli, "cmd_ball",
                        lambda args, group: cli.Outcome(results, rows))
    argv = ["ball", "--group", "Z^2", "--radius", "1", "--out", str(out)]
    if error is None:
        assert main(argv) == EXIT_USAGE      # DictWriter's ValueError
    else:
        with pytest.raises(error):
            main(argv)
    assert out.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


# Results of the suite-style commands at --seed 1, recorded before lifts
# moved onto the support alone for scalar results.  Floats match to 1e-12
# relative and counts exactly.  max_identity_residual is the rounding noise
# of an identity that holds exactly (<delta_y, a> = -2 conj(Lap a(y))), so
# its last bits follow the summation order: it is held to 1e-15 absolute,
# a thousandth of the suite's own 1e-12 bound.
PINNED_RESULTS = [
    (["lemma61", "--group", "Z^2", "--samples", "150",
      "--scalar-samples", "2000"],
     {"min_margin": 0.3305041490659326, "samples": 150, "scalar_samples": 2000,
      "scalar_violations": 0, "violations": 0}),
    (["pairing", "--group", "H3", "--samples", "100"],
     {"holder_violations": 0, "max_identity_residual": 0.0,
      "max_window_edge_leakage": 32.05118795074198, "p": 2.0,
      "samples": 100}),
    (["sobolev", "--group", "Z^3", "--d", "3", "--samples", "40"],
     {"constant": 0.08333333333333333, "cprime": 0.6666666666666666,
      "d": 3.0, "exponent_identity_residual": 1.088503835406941e-16,
      "isd_constant": 1.0,
      "isd_verdict": "consistent with dimension-3.0 profile, C = 1 "
                     "(empirical lower bound)",
      "maximizer": "indicator-n1", "samples": 49, "violation_count": 0,
      "worst_margin": 1.3006416266719079}),
]

PINNED_VERIFY_ALL = """\
suite=norms pass checked=1200 failures=0
suite=cocycle pass checked=300 failures=0
suite=lemma31 pass checked=5 failures=0
suite=lemma41 pass checked=1200 failures=0
suite=lemma52 pass checked=1100 failures=0
suite=prop53-holder pass checked=900 failures=0
suite=lemma61 pass checked=101000 failures=0
suite=prop62 pass checked=201 failures=0
suite=maxprinciple pass checked=31 failures=0
"""


@pytest.mark.parametrize("argv,want", PINNED_RESULTS,
                         ids=[a[0] + "-" + a[2] for a, _ in PINNED_RESULTS])
def test_suite_command_results_pinned(argv, want, tmp_path):
    out = tmp_path / "r.json"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == EXIT_OK
    got = json.loads(out.read_text())["results"]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key == "max_identity_residual":
            assert abs(got[key] - value) <= 1e-15, key
        elif isinstance(value, float):
            assert abs(got[key] - value) <= 1e-12 * abs(value), key
        else:
            assert got[key] == value and type(got[key]) is type(value), key


def test_verify_all_stdout_pinned(capsys):
    assert main(["verify", "--suite", "all", "--seed", "1"]) == EXIT_OK
    assert capsys.readouterr().out == PINNED_VERIFY_ALL


# sha256 of reports that hold no floats, so no BLAS or summation order can
# move a byte.  Greedy profiles are left out: their tie-break may change.
PINNED_DIGESTS = [
    (["ball", "--group", "F_2", "--radius", "6", "--neighbors"],
     "ce18f2b58faaa25c1c2bcbd55d9bd479ba2855a3d82f141af62db9b7a09ac9bc"),
    (["ball", "--group", "H3", "--radius", "3", "--neighbors"],
     "ddc9ce677806e96683bad247713abd02533f1ba0313dba93ea11c89926c8acad"),
    (["iso", "--group", "Z^2", "--nmax", "8"],
     "cb45d190aeb481511e855f4bdecb64b7e5e5305e3e04404e4df3c6a8d8d58a1d"),
    (["iso", "--group", "F_2", "--nmax", "200", "--strategy", "ball-family"],
     "72abaf301f6c1fb391e8dd9259188c5202cd26c2874f407bda5f9eeebc34082b"),
    (["iso", "--group", "Z^3", "--nmax", "200", "--strategy", "cube-family",
      "--format", "csv"],
     "14f5b8e07711c217f92bb44c010d8c333c65028c76401b627d90d1086c5cab70"),
]


@pytest.mark.parametrize("argv,digest", PINNED_DIGESTS,
                         ids=[" ".join(a[:3]) for a, _ in PINNED_DIGESTS])
def test_integer_reports_pinned(argv, digest, tmp_path):
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
