import os
import subprocess
import sys
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from caylex import dirichlet, funcspace
from caylex.cayley import CayleyBall, build_ball
from caylex.dirichlet import (EnergyProblem, NullSequenceError,
                              capacity, harmonic_extension,
                              maximum_principle_check, null_sequence,
                              parabolicity_scan, royden_source, royden_split,
                              solve, trend_verdict)
from caylex.funcspace import BallFunction, dirichlet_seminorm_pow
from caylex.groups import make_group

Z1 = make_group("Z^1")


def _z1_two_point_problem(R, p):
    ball = build_ball(Z1, R)
    lo = ball.index[(-R,)]
    hi = ball.index[(R,)]
    return ball, EnergyProblem(ball, p, {lo: 0.0, hi: 1.0}, "ball")


def test_harmonic_extension_z1_linear():
    R = 6
    ball, problem = _z1_two_point_problem(R, 2.0)
    rep = harmonic_extension(problem)
    for i, x in enumerate(ball.elements):
        assert rep.minimizer.values[i] == pytest.approx((x[0] + R) / (2 * R),
                                                        abs=1e-10)
    assert rep.energy == pytest.approx(1.0 / R)
    assert rep.solver == "direct-linear"
    assert rep.residual <= 1e-10


def test_harmonic_extension_z1_p3_still_linear():
    # equal increments minimize sum |du|^3 with a fixed total rise
    R = 5
    ball, problem = _z1_two_point_problem(R, 3.0)
    rep = harmonic_extension(problem)
    for i, x in enumerate(ball.elements):
        assert rep.minimizer.values[i] == pytest.approx((x[0] + R) / (2 * R),
                                                        abs=1e-6)
    assert rep.solver == "iterative-convex"


def test_constant_boundary_data_extends_constantly():
    ball = build_ball(make_group("Z^2"), 4)
    constraints = {int(i): 2.5 for i in ball.sphere_indices(4)}
    rep = harmonic_extension(EnergyProblem(ball, 2.0, constraints, "ball"))
    assert np.allclose(rep.minimizer.values, 2.5, atol=1e-9)
    assert rep.energy == pytest.approx(0.0, abs=1e-12)


def test_harmonic_extension_needs_full_sphere():
    ball = build_ball(Z1, 4)
    with pytest.raises(ValueError):
        harmonic_extension(EnergyProblem(ball, 2.0, {0: 1.0}, "ball"))


@pytest.mark.parametrize("outside", [-1, 9])
def test_pins_outside_the_ball_are_rejected(outside):
    # B_4 of Z^1 has 9 vertices; -1 must not stand for vertex 8
    ball = build_ball(Z1, 4)
    pins = {int(i): 0.0 for i in ball.sphere_indices(4)}
    del pins[ball.n_vertices - 1]
    for run in (solve, harmonic_extension):
        with pytest.raises(ValueError, match="outside the ball"):
            run(EnergyProblem(ball, 2.0, {**pins, outside: 1.0}, "ball"))


def test_p_must_exceed_one():
    ball = build_ball(Z1, 3)
    with pytest.raises(ValueError):
        EnergyProblem(ball, 1.0, {0: 1.0})


def test_unknown_convention_raises_at_construction(monkeypatch):
    monkeypatch.setattr(dirichlet, "_setup",
                        lambda problem: pytest.fail("a bad problem was solved"))
    ball = build_ball(Z1, 3)
    with pytest.raises(ValueError, match="unknown exterior convention 'bogus'"):
        solve(EnergyProblem(ball, 2.0, {0: 1.0}, "bogus"))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("R", [4, 8, 16, 32])
def test_capacity_closed_form_z1(p, R):
    cap, minimizer, rep = capacity(Z1, p, R)
    assert cap == pytest.approx(4.0 * R ** (1.0 - p), rel=1e-9)
    # the minimizer is the tent 1 - |x|/R
    ball = minimizer.ball
    for i, x in enumerate(ball.elements):
        assert minimizer.values[i] == pytest.approx(1.0 - abs(x[0]) / R,
                                                    abs=1e-6)


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
@pytest.mark.parametrize("R", [2, 3, 4, 5])
def test_capacity_closed_form_f2(p, R):
    # the minimizer is radial: the flow through the N_r = 4 3^r edges from
    # sphere r to r + 1 is a series of parallel resistors
    series = sum((4.0 * 3.0 ** r) ** (-1.0 / (p - 1.0)) for r in range(R))
    cap, _, rep = capacity(make_group("F_2"), p, R)
    assert rep.solver == "iterative-convex"
    assert cap == pytest.approx(2.0 * series ** (1.0 - p), rel=1e-9)


def test_capacity_z2_p15_converges():
    group = make_group("Z^2")
    cap16, m, _ = capacity(group, 1.5, 16)
    assert cap16 <= capacity(group, 1.5, 8)[0]
    assert m.values.min() >= -1e-10
    assert m.values.max() <= 1.0 + 1e-10


def test_capacity_radius_one_is_2S():
    for spec in ["Z^1", "Z^2", "F_2", "H3"]:
        group = make_group(spec)
        cap, _, _ = capacity(group, 2.0, 1)
        assert cap == pytest.approx(2.0 * len(group.generators), rel=1e-9)


def test_capacity_monotone_in_radius():
    group = make_group("Z^2")
    caps = [capacity(group, 2.0, R)[0] for R in (2, 4, 8, 16)]
    assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:]))


def test_capacity_minimizer_range():
    _, m, _ = capacity(make_group("Z^2"), 3.0, 6)
    assert m.values.min() >= -1e-10
    assert m.values.max() <= 1.0 + 1e-10
    assert m.values[0] == 1.0


def test_energy_scaling_quadratic():
    """Scaling the boundary data by c scales the p=2 energy by c^2."""
    ball = build_ball(make_group("Z^2"), 4)
    rng = np.random.default_rng(0)
    data = {int(i): float(rng.normal()) for i in ball.sphere_indices(4)}
    e1 = harmonic_extension(EnergyProblem(ball, 2.0, data, "ball")).energy
    scaled = {i: 3.0 * v for i, v in data.items()}
    e2 = harmonic_extension(EnergyProblem(ball, 2.0, scaled, "ball")).energy
    assert e2 == pytest.approx(9.0 * e1, rel=1e-10)


class _NewtonAtTwo(float):
    """An exponent that is 2.0 in arithmetic but not to dirichlet._solve's
    route test, so that _solve runs Newton at p = 2."""

    def __ne__(self, other):
        return True


def solve_descent_only(problem: EnergyProblem):
    """The Newton route from the pinned start rather than the p = 2
    solution, even at p = 2: a cross-check of the linear solve.  It runs
    dirichlet._solve with the linear solve replaced by the pinned start."""
    ranks, q = dirichlet._setup(problem)

    def lift(x):
        return BallFunction(problem.ball, x[ranks], problem.convention)

    with mock.patch.object(dirichlet, "_solve_linear",
                           lambda q: (q.x0.copy(), 0.0)):
        return dirichlet._solve(q, _NewtonAtTwo(problem.p), lift)


def test_descent_agrees_with_linear_solver():
    ball = build_ball(make_group("Z^2"), 4)
    rng = np.random.default_rng(1)
    data = {int(i): float(rng.normal()) for i in ball.sphere_indices(4)}
    problem = EnergyProblem(ball, 2.0, data, "ball")
    direct = solve(problem)
    descent = solve_descent_only(problem)
    assert direct.solver == "direct-linear"
    assert descent.solver == "iterative-convex"
    assert np.allclose(direct.minimizer.values, descent.minimizer.values,
                       atol=1e-7)


@pytest.mark.parametrize("convention", ["ball", "zero"])
def test_newton_solves_p2_in_one_step(convention):
    # at p = 2 the Hessian is exact, so one full step lands on the minimizer;
    # half the sphere is free, so under 'zero' exterior slots enter it
    ball = build_ball(make_group("H3"), 3)
    rng = np.random.default_rng(3)
    data = {int(i): float(rng.normal()) for i in ball.sphere_indices(3)[::2]}
    problem = EnergyProblem(ball, 2.0, {0: 1.0, **data}, convention)
    assert solve_descent_only(problem).iterations == 1


def _p2_problem(spec, R, convention):
    """'zero': the capacity problem of B_R; 'ball': harmonic extension of
    random sphere data."""
    ball = build_ball(make_group(spec), R)
    sphere = ball.sphere_indices(R)
    if convention == "zero":
        return EnergyProblem(ball, 2.0, {0: 1.0, **dict.fromkeys(
            sphere.tolist(), 0.0)}, "zero")
    rng = np.random.default_rng(4)
    return EnergyProblem(ball, 2.0, dict(zip(sphere.tolist(),
                                             rng.normal(size=len(sphere)))),
                         "ball")


def _spsolve_spd(L, b):
    return spla.spsolve(L.tocsc(), b)


def _count_spsolve(monkeypatch):
    """Patch spla.spsolve to record the shape of every call."""
    calls, lu = [], spla.spsolve

    def counted(A, b):
        calls.append(A.shape)
        return lu(A, b)

    monkeypatch.setattr(spla, "spsolve", counted)
    return calls


P2_SYSTEMS = [("Z^3", 8, "zero"), ("H3", 6, "zero"),
              ("F_2", 5, "ball"), ("Z^2", 16, "ball")]


@pytest.mark.parametrize("spec,R,convention", P2_SYSTEMS)
def test_cg_route_agrees_with_sparse_lu(spec, R, convention, monkeypatch):
    monkeypatch.setattr(dirichlet, "BAND_MAX_FILL", 0)     # every system on CG
    monkeypatch.setattr(dirichlet, "LU_MAX_UNKNOWNS", 0)
    problem = _p2_problem(spec, R, convention)
    rep = solve(problem)
    assert rep.solver == "direct-linear"
    assert rep.residual <= 1e-10
    monkeypatch.setattr(dirichlet, "_solve_spd", _spsolve_spd)
    want = solve(problem).minimizer.values
    got = rep.minimizer.values
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("spec,R,convention", P2_SYSTEMS)
def test_sparse_lu_fallback_when_cg_stops_early(spec, R, convention,
                                                monkeypatch):
    monkeypatch.setattr(dirichlet, "BAND_MAX_FILL", 0)     # every system on CG
    monkeypatch.setattr(dirichlet, "LU_MAX_UNKNOWNS", 0)
    problem = _p2_problem(spec, R, convention)
    want = solve(problem).minimizer.values
    calls = _count_spsolve(monkeypatch)
    # CG_RTOL = 0 never stops CG; past an exact solve (F_2) it divides 0 by 0
    monkeypatch.setattr(dirichlet, "CG_RTOL", 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rep = solve(problem)
    assert len(calls) == 1
    assert rep.residual <= 1e-10
    got = rep.minimizer.values
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _recorded_systems(monkeypatch, run, name="_solve_spd"):
    """The (L, b) of every call of dirichlet.<name> made by run()."""
    systems, solver = [], getattr(dirichlet, name)

    def recorded(L, b):
        systems.append((L, b))
        return solver(L, b)

    with monkeypatch.context() as m:
        m.setattr(dirichlet, name, recorded)
        run()
    return systems


def _scipy_cg(L, b):
    x, info = spla.cg(L, b, rtol=dirichlet.CG_RTOL, atol=0.0,
                      maxiter=L.shape[0], M=sp.diags(1.0 / L.diagonal()))
    assert info == 0
    return x


def _p2_system(spec, R, convention):
    _, q = dirichlet._setup(_p2_problem(spec, R, convention))
    return dirichlet._laplacian(q.x0, q.free, q.edges, q.w, q.w_ext)


CG_CASES = [*P2_SYSTEMS, ("Z^2", 32, "zero"), "Z^2 p=3 Newton R=16", "b = 0"]


@pytest.mark.parametrize("case", CG_CASES, ids=[
    c if isinstance(c, str) else "{} R={} {}".format(*c) for c in CG_CASES])
def test_cg_loop_matches_scipy_cg(case, monkeypatch):
    """_solve_spd runs scipy's Jacobi-PCG recurrence: bit-identical."""
    monkeypatch.setattr(dirichlet, "BAND_MAX_FILL", 0)     # every system on CG
    monkeypatch.setattr(dirichlet, "LU_MAX_UNKNOWNS", 0)
    if case == "Z^2 p=3 Newton R=16":
        # every Newton Hessian, the first taken at the p = 2 solution
        systems = _recorded_systems(
            monkeypatch, lambda: capacity(make_group("Z^2"), 3.0, 16))[1:]
        assert len(systems) == DESCENT_CASES["Z^2", 3.0, 16]
    elif case == "b = 0":
        L, b = _p2_system("H3", 4, "zero")
        systems = [(L, np.zeros_like(b))]
    else:
        systems = [_p2_system(*case)]
    for L, b in systems:
        assert np.array_equal(dirichlet._solve_spd(L, b), _scipy_cg(L, b))


def _f2_capacity(p, R):
    series = sum((4.0 * 3.0 ** r) ** (-1.0 / (p - 1.0)) for r in range(R))
    return 2.0 * series ** (1.0 - p)


@pytest.mark.parametrize("run,want", [
    (lambda: [capacity(Z1, 2.0, 64)[0]], [4.0 / 64]),
    (lambda: [capacity(make_group("F_2"), 1.5, 3)[0]], [_f2_capacity(1.5, 3)]),
    (lambda: parabolicity_scan(Z1, 2.0, [4, 8, 16, 32, 64]).capacities,
     [4.0 / R for R in [4, 8, 16, 32, 64]]),
], ids=["Z^1 R=64", "F_2 p=1.5 R=3", "Z^1 scan 4:64:*2"])
def test_cg_converging_on_its_last_step_needs_no_lu(run, want, monkeypatch):
    """CG that reaches its tolerance on the m-th update of an m-unknown
    system (every Z^1 capacity; F_2 Newton steps) keeps its answer."""
    monkeypatch.setattr(dirichlet, "BAND_MAX_FILL", 0)     # every system on CG
    monkeypatch.setattr(dirichlet, "LU_MAX_UNKNOWNS", 0)
    calls = _count_spsolve(monkeypatch)
    assert run() == pytest.approx(want, rel=1e-12)
    assert calls == []


def test_capacity_z3_r16_unchanged_by_cg():
    # the value of the sparse LU route, before CG
    assert capacity(make_group("Z^3"), 2.0, 16)[0] == pytest.approx(
        8.163002773376352, rel=1e-12)


# the route of each system, by its band fill (bw + 1) m / nnz, then by
# bw^2 / m and m for the factor
BAND_ROUTES = [("Z^1", 512, "zero", "band"), ("Z^2", 48, "zero", "band"),
               ("Z^2", 128, "zero", "band"), ("Z^3", 16, "zero", "band"),
               ("F_2", 9, "zero", "band"), ("Z^3", 32, "zero", "CG"),
               ("H3", 12, "zero", "CG"), ("H3", 16, "zero", "CG"),
               ("Z^2", 64, "ball", "LU"), ("H3", 12, "ball", "CG"),
               ("F_2", 8, "ball", "CG"), ("Z^2", 256, "zero", "LU"),
               ("Z^3", 64, "zero", "CG")]


def _solve_narrow_counted(L, b, monkeypatch):
    """dirichlet._solve_narrow(L, b) and the number of _solve_spd calls it
    made: 0 on the band route, 1 on CG."""
    got = []
    cg_calls = _recorded_systems(
        monkeypatch, lambda: got.append(dirichlet._solve_narrow(L, b)))
    return got[0], len(cg_calls)


def _solve_narrow_route(L, b, monkeypatch):
    """dirichlet._solve_narrow(L, b) and its route: 'LU' when it factored
    L by spla.splu, 'CG' when it called _solve_spd, 'LU then CG' when it
    did both, and 'band' when it did neither."""
    factored, splu = [], spla.splu

    def counted(A, **options):
        factored.append(A.shape)
        return splu(A, **options)

    with monkeypatch.context() as m:
        m.setattr(spla, "splu", counted)
        x, cg_calls = _solve_narrow_counted(L, b, m)
    routes = ["LU"] * len(factored) + ["CG"] * cg_calls
    return x, " then ".join(routes) or "band"


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("spec,R,convention,route", BAND_ROUTES)
def test_narrow_systems_take_the_band(spec, R, convention, route, monkeypatch):
    L, b = _p2_system(spec, R, convention)
    x, got = _solve_narrow_route(L, b, monkeypatch)
    assert got == route
    if route != "CG":
        assert _relative_error(x, spla.spsolve(L.tocsc(), b)) <= 1e-12


def test_factor_route_is_bounded_by_its_unknowns(monkeypatch):
    L, b = _p2_system("Z^2", 64, "ball")
    m = L.shape[0]
    monkeypatch.setattr(dirichlet, "LU_MAX_UNKNOWNS", m - 1)
    assert _solve_narrow_route(L, b, monkeypatch)[1] == "CG"
    monkeypatch.setattr(dirichlet, "LU_MAX_UNKNOWNS", m)
    assert _solve_narrow_route(L, b, monkeypatch)[1] == "LU"


def test_singular_factor_falls_back_to_cg(monkeypatch):
    # wide for the band, 2-D enough for the factor (bw^2 = 784 <= 8 m);
    # the block [[1, -1], [-1, 1]] on unknowns 0 and 28 is singular, and
    # CG solves the consistent system
    L = sp.lil_matrix(np.eye(100))
    L[0, 28] = L[28, 0] = -1.0
    L = L.tocsr()
    b = np.zeros(100)
    b[0], b[28], b[50] = 1.0, -1.0, 2.0
    x, route = _solve_narrow_route(L, b, monkeypatch)
    assert route == "LU then CG"
    assert np.allclose(L @ x, b, rtol=0.0, atol=1e-14)


def test_newton_hessians_take_the_band(monkeypatch):
    # the p = 2 system, then every Newton Hessian
    systems = _recorded_systems(
        monkeypatch, lambda: capacity(make_group("Z^2"), 3.0, 48), "_solve_narrow")
    assert len(systems) == 1 + DESCENT_CASES["Z^2", 3.0, 48]
    for L, b in systems:
        x, cg_calls = _solve_narrow_counted(L, b, monkeypatch)
        assert cg_calls == 0
        assert _relative_error(x, spla.spsolve(L.tocsc(), b)) <= 1e-12


def test_capacity_z1_r512_on_the_band():
    assert capacity(Z1, 2.0, 512)[0] == pytest.approx(4.0 / 512, rel=1e-14)


def test_indefinite_system_falls_back_to_cg(monkeypatch):
    # narrow enough for the band, whose Cholesky factorisation then fails
    # (second leading minor -3); CG solves it in three steps
    L = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    b = np.array([1.0, 0.0, 1.0])
    x, cg_calls = _solve_narrow_counted(L, b, monkeypatch)
    assert cg_calls == 1
    assert np.array_equal(x, dirichlet._solve_spd(L, b))
    assert np.allclose(L @ x, b, rtol=0.0, atol=1e-14)


def test_trend_verdicts():
    assert trend_verdict([4, 8, 16, 32], [1.0, 0.1, 0.04, 0.02]) == \
        "parabolic-trend"
    # still above the smallness threshold: no verdict yet
    assert trend_verdict([4, 8, 16, 32], [1.0, 0.5, 0.25, 0.125]) == \
        "inconclusive"
    assert trend_verdict([4, 8, 16], [8.0, 7.0, 6.99]) == "non-parabolic-trend"
    assert trend_verdict([4], [1.0]) == "inconclusive"


def test_parabolicity_scan_z1():
    scan = parabolicity_scan(Z1, 2.0, [4, 8, 16, 32, 64, 128])
    assert scan.capacities == pytest.approx([4.0 / R for R in scan.radii],
                                            rel=1e-9)
    assert scan.verdict == "parabolic-trend"
    with pytest.raises(ValueError):
        parabolicity_scan(Z1, 2.0, [8, 4])


def test_null_sequence_z1():
    scan = parabolicity_scan(Z1, 2.0, [4, 8, 16, 32, 64, 128, 256, 512])
    terms = null_sequence(scan)
    # ||alpha_R||_D(2) = 2/sqrt(R) needs R > 4 n^4
    assert [t.n for t in terms] == [1, 2, 3]
    for t in terms:
        assert t.beta_seminorm < 1.0 / t.n
        assert t.alpha_seminorm < 1.0 / t.n ** 2
        assert t.beta(Z1.identity()) == pytest.approx(t.n)
    short = parabolicity_scan(Z1, 2.0, [2, 3])
    with pytest.raises(NullSequenceError):
        null_sequence(short)


def test_null_sequence_z1_p3():
    # cap_3(R) = 4 R^{-2}: the seminorms are taken at the scan's p = 3
    scan = parabolicity_scan(Z1, 3.0, [4, 8, 16, 32, 64])
    terms = null_sequence(scan)
    assert [(t.n, t.radius) for t in terms] == [(1, 4), (2, 32), (3, 64)]
    for t in terms:
        assert t.beta_seminorm < 1.0 / t.n
        assert t.alpha_seminorm == pytest.approx(
            (4.0 * t.radius ** -2.0) ** (1.0 / 3.0), rel=1e-9)


def _count_builds(monkeypatch):
    """Patch dirichlet.build_ball to record the radius of every build."""
    radii = []

    def counted(group, radius, *args, **kwargs):
        radii.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(dirichlet, "build_ball", counted)
    return radii


@pytest.mark.parametrize("spec,p,radii", [
    ("Z^2", 2.0, [2, 4, 8]), ("H3", 2.0, [1, 2, 4]), ("F_2", 3.0, [2, 3, 4]),
])
def test_parabolicity_scan_builds_one_ball(spec, p, radii, monkeypatch):
    """The scan builds only its largest ball, and none on the closed-form
    cell graphs of Z^d and F_k, and each capacity equals capacity(group,
    p, R) exactly."""
    group = make_group(spec)
    built = _count_builds(monkeypatch)
    scan = parabolicity_scan(group, p, radii)
    assert built == ([radii[-1]] if spec == "H3" else [])
    assert scan.capacities == [rep.energy for rep in scan.reports]
    for R, cap in zip(radii, scan.capacities):
        assert capacity(group, p, R)[0] == cap


def test_scan_lifts_onto_one_ball_when_a_minimizer_is_read(monkeypatch):
    group = make_group("Z^2")
    built = _count_builds(monkeypatch)
    scan = parabolicity_scan(group, 3.0, [2, 4, 8])
    assert built == []
    lifted = [scan.reports[k].minimizer for k in (1, 0, 1)]
    assert built == [8]
    assert lifted[0] is lifted[2]
    for m, R in zip(lifted, [4, 2]):
        want = capacity(group, 3.0, R)[1]
        assert m.ball.radius == R and m.convention == "zero"
        assert np.array_equal(m.values, want.values)


def _capacity_on_the_ball(group, p, R):
    ball = build_ball(group, R)
    pins = {0: 1.0, **dict.fromkeys(ball.sphere_indices(R).tolist(), 0.0)}
    return solve(EnergyProblem(ball, p, pins, convention="zero"))


@pytest.mark.parametrize("spec,radii", [
    ("Z^1", [1, 2, 5, 16, 64]), ("Z^2", [1, 3, 8, 16]),
    ("Z^3", [1, 4, 8, 16]), ("F_2", [1, 4, 8])])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cell_graph_capacity_matches_the_ball_route(spec, radii, p):
    """The closed-form cells give the capacities and minimizers that the
    cells of a built ball give."""
    if (spec, p) == ("Z^3", 1.5):
        radii = radii[:-1]          # R = 16 stalls at the Newton cap
    scan = parabolicity_scan(make_group(spec), p, radii)
    for R, cap, rep in zip(radii, scan.capacities, scan.reports):
        want = _capacity_on_the_ball(make_group(spec), p, R)
        assert abs(cap - want.energy) <= 1e-12 * want.energy
        assert rep.solver == want.solver
        assert np.allclose(rep.minimizer.values, want.minimizer.values,
                           rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("k,p,radii", [(2, 2.0, [10, 12]), (2, 3.0, [12]),
                                       (3, 2.0, [9]), (3, 3.0, [4, 9])])
def test_free_group_capacity_past_the_balls_built_here(k, p, radii,
                                                        monkeypatch):
    """2 (sum_{r<R} N_r^(-1/(p-1)))^(1-p), N_r = 2k(2k-1)^r, on up to a
    million vertices, with no ball built."""
    built = _count_builds(monkeypatch)
    scan = parabolicity_scan(make_group(f"F_{k}"), p, radii)
    assert built == []
    for R, cap in zip(radii, scan.capacities):
        series = sum((2.0 * k * (2 * k - 1) ** r) ** (-1.0 / (p - 1.0))
                     for r in range(R))
        assert cap == pytest.approx(2.0 * series ** (1.0 - p), rel=1e-12)


def test_z3_capacity_past_the_default_cap(monkeypatch):
    """ROADMAP section 5: Z^3 at R = 160 (5,512,961 vertices, past the
    default cap of 5e6) lies within 5/R above Watson's limit 12/W."""
    monkeypatch.setenv("CAYLEX_MAX_VERTICES", "6000000")
    built = _count_builds(monkeypatch)
    R = 160
    cap = parabolicity_scan(make_group("Z^3"), 2.0, [R]).capacities[0]
    assert built == []
    watson = 12.0 / 1.516386059151978
    assert 0.0 < cap - watson < 5.0 / R


def test_scan_keeps_cell_values_not_balls():
    """The scan of Z^1 over R = 1..1000 holds 30.4 MB when every report
    keeps a restricted ball and its lift; cell values take under a quarter
    of that."""
    tracemalloc.start()
    try:
        scan = parabolicity_scan(Z1, 2.0, range(1, 1001))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scan.capacities[-1] == pytest.approx(4.0 / 1000, rel=1e-12)
    assert held <= 30.4e6 / 4


@pytest.mark.parametrize("preset", [None, "OPENBLAS_NUM_THREADS",
                                    "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_defaults_blas_to_one_thread(preset):
    """import caylex sets OPENBLAS_NUM_THREADS=1 unless one of the three
    thread variables is set; then it leaves the environment as it is."""
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    if preset is not None:
        env[preset] = "2"
    code = ("import os, caylex; print(repr([os.environ.get(k) for k in "
            f"{names!r}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    want = ["1", None, None] if preset is None else \
        [env.get(k) for k in names]
    assert out.strip() == repr(want)


@pytest.mark.parametrize("spec,source,radii", [
    ("F_2", "end-separating", [3, 5, 6]), ("Z^3", "green-like", [2, 4, 5]),
])
def test_royden_split_builds_one_ball(spec, source, radii, monkeypatch):
    """The split builds only its largest ball, and each entry equals the
    harmonic extension on a fresh build_ball(group, R)."""
    group = make_group(spec)
    built = _count_builds(monkeypatch)
    rep = royden_split(group, source, radii)
    assert built == [radii[-1]]
    f = royden_source(group, source)
    for R, entry in zip(radii, rep.entries):
        ball = build_ball(group, R)
        pins = dict(zip(ball.sphere_indices(R).tolist(),
                        f(ball.sphere_rows(R)).tolist()))
        want = harmonic_extension(EnergyProblem(ball, 2.0, pins, "ball"))
        vals = want.minimizer.values
        assert (entry.radius, entry.energy, entry.sup, entry.inf) == \
            (R, want.energy, vals.max(), vals.min())


@pytest.mark.parametrize("spec,source,radii", [
    ("F_2", "end-separating", [3, 4, 6]), ("Z^2", "coordinate", [2, 4, 8, 16]),
    ("Z^3", "green-like", [4, 5, 6, 8]),
])
def test_royden_prefixes_equal_restricted_balls(spec, source, radii,
                                                 monkeypatch):
    """Each entry, posed on the prefix B_R of the split's one ball, equals
    bit for bit the solve on ball.restrict(R).  The split restricts no
    ball and builds the ball's cell graph at most once."""
    group = make_group(spec)
    f = royden_source(group, source)
    ball = build_ball(group, radii[-1])
    want = []
    for R in radii:
        sub = ball.restrict(R)
        rep = solve(EnergyProblem(sub, 2.0, dict(zip(
            sub.sphere_indices(R).tolist(), f(sub.sphere_rows(R)).tolist())),
            "ball"))
        vals = rep.minimizer.values
        want.append((R, rep.energy.hex(), vals.max().hex(), vals.min().hex()))
    built, cell_graph = [], CayleyBall.cell_graph

    def counted(self):
        built.append(self._cells is None)
        return cell_graph(self)

    monkeypatch.setattr(CayleyBall, "cell_graph", counted)
    monkeypatch.setattr(CayleyBall, "restrict",
                        lambda self, r: pytest.fail("a sub-ball was built"))
    got = [(e.radius, e.energy.hex(), e.sup.hex(), e.inf.hex())
           for e in royden_split(group, source, radii).entries]
    assert got == want
    assert sum(built) <= 1
    assert (source == "green-like") == bool(built)


@pytest.mark.parametrize("spec,source,radii", [
    ("F_2", "end-separating", [3, 5]), ("Z^2", "constant", [2, 4]),
])
def test_royden_reports_lift_onto_their_prefix_balls(spec, source, radii,
                                                      monkeypatch):
    """Each Royden step is solved and reported by dirichlet._solve: read,
    its report's minimizer is the solve on ball.restrict(R), and the entry
    holds the report's energy and the extrema of its cell values."""
    group = make_group(spec)
    reports, real = [], dirichlet._solve
    monkeypatch.setattr(dirichlet, "_solve", lambda q, p, lift: reports.append(
        real(q, p, lift)) or reports[-1])
    entries = royden_split(group, source, radii).entries
    f = royden_source(group, source)
    ball = build_ball(group, radii[-1])
    for R, entry, rep in zip(radii, entries, reports):
        sub = ball.restrict(R)
        want = solve(EnergyProblem(sub, 2.0, dict(zip(
            sub.sphere_indices(R).tolist(), f(sub.sphere_rows(R)).tolist())),
            "ball")).minimizer
        got = rep.minimizer
        assert (got.ball.radius, got.convention) == (R, "ball")
        assert np.array_equal(got.values, want.values)
        assert (entry.energy, entry.sup, entry.inf) == \
            (rep.energy, rep.cell_values.max(), rep.cell_values.min())


@pytest.mark.parametrize("radii", [[4, 3], [3, 3], [0, 2], []])
def test_scans_reject_a_bad_schedule(radii):
    with pytest.raises(ValueError):
        royden_split(make_group("Z^2"), "constant", radii)
    with pytest.raises(ValueError):
        parabolicity_scan(make_group("Z^2"), 2.0, radii)


def _at(source, x):
    """The source's value on the one element x."""
    return source(np.array([x], dtype=np.int64))[0]


def test_royden_sources():
    f = partial(_at, royden_source(make_group("Z^3"), "green-like"))
    assert f((0, 0, 0)) == 1.0
    assert f((3, -1, 2)) == pytest.approx(1.0 / 3.0)
    g = partial(_at, royden_source(make_group("Z^2"), "coordinate"))
    assert g((4, -7)) == 4.0
    h = partial(_at, royden_source(make_group("F_2"), "end-separating"))
    assert h(()) == 0.0
    assert h((1, 1)) == pytest.approx(0.75)
    assert h((-1,)) == pytest.approx(-0.5)
    assert h((2, 1)) == 0.0
    with pytest.raises(ValueError):
        royden_source(make_group("F_2"), "green-like")
    with pytest.raises(ValueError):
        royden_source(Z1, "nope")


def _element_source(name, damping):
    """The source on one element, as a formula of its tuple."""
    return {"green-like": lambda x: 1.0 / max(1, max(abs(a) for a in x)),
            "coordinate": lambda x: float(x[0]),
            "constant": lambda x: 1.0,
            "end-separating": lambda w: ((1.0 - damping ** len(w)) * w[0]
                                         if w and abs(w[0]) == 1 else 0.0),
            }[name]


@pytest.mark.parametrize("spec,name,damping", [
    *[(spec, name, 0.5) for spec in ("Z^2", "Z^3")
      for name in ("green-like", "coordinate", "constant")],
    *[(spec, "end-separating", damping) for spec in ("F_2", "F_3")
      for damping in (0.5, 0.3)]])
def test_royden_sources_match_the_element_formulas(spec, name, damping):
    """On every sphere of B_6, the source of the sphere rows is the formula
    on each element, bit for bit."""
    group = make_group(spec)
    source, formula = royden_source(group, name, damping), \
        _element_source(name, damping)
    ball = build_ball(group, 6)
    for r in range(7):
        got = source(ball.sphere_rows(r))
        want = np.array([formula(ball.elements[i])
                         for i in ball.sphere_indices(r)])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_royden_constant_source_vanishes():
    rep = royden_split(make_group("Z^2"), "constant", [3, 4, 5])
    assert rep.verdict == "harmonic-part-vanishing"
    assert all(e.energy <= 1e-10 for e in rep.entries)


def test_royden_coordinate_diverges():
    rep = royden_split(make_group("Z^2"), "coordinate", [3, 5, 8])
    energies = [e.energy for e in rep.entries]
    assert energies[-1] > energies[0]
    assert rep.verdict == "energy-divergent"


def test_maximum_principle():
    ball = build_ball(make_group("Z^2"), 4)
    rng = np.random.default_rng(2)
    data = {int(i): float(rng.normal()) for i in ball.sphere_indices(4)}
    rep = harmonic_extension(EnergyProblem(ball, 2.0, data, "ball"))
    res = maximum_principle_check(ball, rep.minimizer, tol=1e-7)
    assert res.applicable and res.passed
    # delta at the center is not harmonic: inapplicable, not a failure
    vals = np.zeros(ball.n_vertices)
    vals[0] = 1.0
    res2 = maximum_principle_check(ball, BallFunction(ball, vals, "ball"))
    assert not res2.applicable


# ---------------------------------------------------------------------------
# solves on cells

def _capacity_on_single_vertices(group, p, R, monkeypatch):
    """The capacity problem of build_ball(group, R), each vertex its own
    cell: (capacity, minimizer, report)."""
    with monkeypatch.context() as m:
        m.setattr(type(group), "orbit_key", lambda self, rows: None)
        ball = build_ball(group, R)
        pins = {0: 1.0, **dict.fromkeys(ball.sphere_indices(R).tolist(), 0.0)}
        report = solve(EnergyProblem(ball, p, pins, convention="zero"))
    return report.energy, report.minimizer, report


# (group, p, R) -> Newton steps
DESCENT_CASES = {("Z^1", 1.5, 64): 0, ("Z^1", 3.0, 64): 0, ("Z^2", 3.0, 16): 4,
                 ("Z^2", 3.0, 32): 6, ("Z^2", 3.0, 48): 6, ("Z^3", 3.0, 7): 5,
                 ("F_2", 1.5, 3): 8, ("H3", 1.5, 3): 8}


@pytest.mark.parametrize("spec,p,R", [
    (spec, p, R) for spec, R in [("Z^1", 16), ("Z^2", 10), ("Z^3", 5),
                                 ("H3", 4), ("F_2", 4)]
    for p in (1.5, 2.0, 3.0)] + list(DESCENT_CASES))
def test_cell_solve_matches_single_vertex_solve(spec, p, R, monkeypatch):
    group = make_group(spec)
    cap, m, rep = capacity(group, p, R)
    cells = m.ball.orbit_ranks
    assert cells.max() + 1 < m.ball.n_vertices
    want, m1, rep1 = _capacity_on_single_vertices(group, p, R, monkeypatch)
    assert np.array_equal(m1.ball.orbit_ranks, np.arange(m1.ball.n_vertices))
    assert abs(cap - want) <= 1e-12 * want
    assert np.allclose(m.values, m1.values, rtol=0.0, atol=1e-8)
    if (spec, p, R) in DESCENT_CASES:
        assert rep.iterations == rep1.iterations == DESCENT_CASES[spec, p, R]
    # the energy taken on the cells is the lift's; on single vertices,
    # with unit weights, it is the same sum bit for bit
    assert abs(cap - dirichlet_seminorm_pow(m, p)) <= 1e-12 * cap
    assert want == dirichlet_seminorm_pow(m1, p)
    # the minimizer is constant on cells
    first = np.unique(cells, return_index=True)[1]
    assert np.array_equal(m.values, m.values[first][cells])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_f2_capacity_on_spheres_matches_closed_form(p):
    radii = [6, 8]
    scan = parabolicity_scan(make_group("F_2"), p, radii)
    for R, cap, rep in zip(radii, scan.capacities, scan.reports):
        ball = rep.minimizer.ball
        assert np.array_equal(ball.orbit_ranks, ball.word_length)
        assert cap == pytest.approx(_f2_capacity(p, R), rel=1e-12)


def test_pins_off_the_cells_fall_back_to_single_vertices():
    f2 = make_group("F_2")
    ball = build_ball(f2, 5)
    sphere = ball.sphere_indices(5)
    source = royden_source(f2, "end-separating")
    royden_step = EnergyProblem(ball, 2.0, dict(zip(
        sphere.tolist(), source(ball.sphere_rows(5)).tolist())), "ball")
    harmonic = _p2_problem("Z^2", 8, "ball")
    for problem in (royden_step, harmonic):
        n = problem.ball.n_vertices
        assert problem.ball.orbit_ranks.max() + 1 < n
        assert np.array_equal(dirichlet._setup(problem)[0], np.arange(n))
    capacity_step = EnergyProblem(ball, 2.0, {0: 1.0, **dict.fromkeys(
        sphere.tolist(), 0.0)}, "zero")
    assert dirichlet._setup(capacity_step)[0] is ball.orbit_ranks


# ---------------------------------------------------------------------------
# reported energies: taken on the solved cells, equal to the lift's

def test_royden_cell_energy_is_the_lift_energy():
    group = make_group("Z^3")
    ball = build_ball(group, 4)
    f = royden_source(group, "green-like")
    problem = EnergyProblem(ball, 2.0, dict(zip(
        ball.sphere_indices(4).tolist(), f(ball.sphere_rows(4)).tolist())),
        "ball")
    assert dirichlet._setup(problem)[0] is ball.orbit_ranks
    rep = harmonic_extension(problem)
    assert rep.energy == pytest.approx(
        dirichlet_seminorm_pow(rep.minimizer, 2.0), rel=1e-12)


def test_vertex_route_energy_is_the_lift_energy_exactly():
    f2 = make_group("F_2")
    ball = build_ball(f2, 5)
    source = royden_source(f2, "end-separating")
    royden_step = EnergyProblem(ball, 2.0, dict(zip(
        ball.sphere_indices(5).tolist(),
        source(ball.sphere_rows(5)).tolist())), "ball")
    for problem in (royden_step, _p2_problem("Z^2", 8, "ball")):
        rep = solve(problem)
        assert rep.energy == dirichlet_seminorm_pow(rep.minimizer, 2.0)


def test_solves_read_no_full_ball_edges(monkeypatch):
    """Every solve reads the slots of its cells' first vertices only: its
    cell graph has one slot row per cell, and k cells give k |S| slots;
    none builds the full-ball slot arrays of cayley.edge_arrays."""
    full, graph_cells = [], dirichlet._graph_cells

    def counted(graph, x0, fixed, zero):
        q = graph_cells(graph, x0, fixed, zero)
        n_slots = len(q.edges[0]) + len(q.edges[2])
        full.append(len(graph[2]) != len(graph[1])
                    or n_slots != len(x0) * graph[2].shape[1])
        return q

    monkeypatch.setattr(dirichlet, "_graph_cells", counted)
    monkeypatch.setattr(funcspace, "edge_arrays",
                        lambda nbr, k: pytest.fail("full-ball edges were read"))
    capacity(make_group("Z^2"), 2.0, 6)
    capacity(make_group("H3"), 3.0, 3)
    royden_split(make_group("F_2"), "end-separating", [3, 4])
    solve(_p2_problem("Z^2", 8, "ball"))
    assert len(full) == 5 and not any(full)


def test_guards_of_posing_and_scanning():
    """Empty pins, p <= 1 and an end-separating source on F_1 are refused;
    a one-radius Royden run has no trend."""
    ball = build_ball(make_group("Z^2"), 2)
    with pytest.raises(ValueError, match=r"^constraint set must be non-empty$"):
        EnergyProblem(ball, 2.0, {})
    with pytest.raises(ValueError, match=r"^capacity requires p > 1$"):
        parabolicity_scan(Z1, 1.0, [2])
    with pytest.raises(ValueError, match=r"^end-separating source is defined "
                                         r"on F_k, k >= 2$"):
        royden_source(make_group("F_1"), "end-separating")
    assert royden_split(make_group("Z^2"), "constant", [3]).verdict == \
        "inconclusive"


def test_scan_refuses_a_capacity_that_increases(monkeypatch):
    """Capacities of nested balls cannot rise; a solve whose energy is its
    cell count does, and the scan names the two radii."""
    monkeypatch.setattr(dirichlet, "_energy", lambda x, p, q: float(len(x)))
    with pytest.raises(dirichlet.SolverFailure,
                       match=r"^capacity increased from R=2 to R=4$"):
        parabolicity_scan(make_group("Z^2"), 2.0, [2, 4])


def test_null_sequence_needs_a_seminorm_below_one():
    scan = dirichlet.CapacityScan(2.0, [1, 2], [4.0, 2.0], "parabolic-trend",
                                  [])
    with pytest.raises(NullSequenceError,
                       match=r"no scan radius reaches .*smallest seminorm "
                             r"1\.414e\+00\)$"):
        null_sequence(scan)


def test_newton_takes_the_gradient_step_when_the_solve_gives_none(
        monkeypatch):
    """A Newton step that is not finite becomes the full-ball gradient step,
    and Newton still reaches the minimizer from the pinned start (Z^1 R=4
    at p = 3: the capacity 2 * 2 R^(1-p))."""
    ball = build_ball(Z1, 4)
    _, q = dirichlet._setup(EnergyProblem(ball, 3.0, {0: 1.0, **dict.fromkeys(
        ball.sphere_indices(4).tolist(), 0.0)}, "zero"))
    real, calls = dirichlet._solve_narrow, []

    def first_fails(L, b):
        calls.append(len(b))
        return np.full(len(b), np.nan) if len(calls) == 1 else real(L, b)

    monkeypatch.setattr(dirichlet, "_solve_narrow", first_fails)
    x, steps, _ = dirichlet._newton(q.x0, 3.0, q)
    assert len(calls) == steps >= 2
    assert dirichlet._energy(x, 3.0, q) == pytest.approx(4.0 / 16, rel=1e-8)


def test_trend_of_a_vanishing_capacity_is_parabolic():
    """A capacity of 0 has no logarithm: its log-log slope is -inf."""
    assert dirichlet._loglog_slope([1, 2], [1.0, 0.0]) == -np.inf
    assert trend_verdict([1, 2], [1.0, 0.0]) == "parabolic-trend"


def test_reports_compare_by_identity():
    """A report holds arrays, so == is identity, not an ambiguous
    element-wise comparison."""
    a, b = (capacity(make_group("Z^2"), 2.0, 4)[2] for _ in range(2))
    assert a == a and a != b
