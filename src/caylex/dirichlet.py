"""Dirichlet-energy minimization on Cayley balls.

Covers p-harmonic extension of boundary data, the p-capacity of the
identity, capacity scans with trend verdicts, null-sequence construction
from capacity minimizers, the Royden-split experiment, and a maximum
principle check.

The p = 2 route assembles the (SPD) graph Laplacian on free vertices and
solves it directly; other exponents use accelerated gradient descent with
backtracking line search, warm-started from the p = 2 solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cayley import CayleyBall, build_ball, edge_arrays
from .funcspace import BallFunction, FormalSum, energy_value, is_harmonic
from .groups import Element, FreeGroup, GroupModel, ZdGroup

LINEAR_RESIDUAL_TOL = 1e-10
DESCENT_GRAD_TOL = 1e-8
DESCENT_MAX_ITER = 500_000


class SolverFailure(RuntimeError):
    """Minimization did not reach its tolerance within the iteration cap."""


@dataclass
class EnergyProblem:
    ball: CayleyBall
    p: float
    constraints: Dict[int, float]     # vertex index -> pinned value
    convention: str = "ball"          # 'zero' or 'ball'

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("energy minimization requires p > 1")
        if not self.constraints:
            raise ValueError("constraint set must be non-empty")


@dataclass
class SolveReport:
    minimizer: BallFunction
    energy: float                     # D(p) seminorm^p under the convention
    iterations: int
    residual: float                   # linear rel. residual or gradient norm
    solver: str                       # 'direct-linear' | 'iterative-convex'


# ---------------------------------------------------------------------------
# energy gradient (the energy itself is funcspace.energy_value)

def _energy_grad(u, p, src, dst, ext_src, convention):
    d = u[dst] - u[src]
    E = float(np.sum(np.abs(d) ** p))
    g = np.zeros_like(u)
    gd = p * np.sign(d) * np.abs(d) ** (p - 1.0)
    np.add.at(g, dst, gd)
    np.add.at(g, src, -gd)
    if convention == "zero":
        ue = u[ext_src]
        E += 2.0 * float(np.sum(np.abs(ue) ** p))
        np.add.at(g, ext_src, 2.0 * p * np.sign(ue) * np.abs(ue) ** (p - 1.0))
    return E, g


# ---------------------------------------------------------------------------
# solvers

def _solve_linear(u0: np.ndarray, free: np.ndarray, convention: str,
                  edges) -> Tuple[np.ndarray, float]:
    """Minimize the p=2 energy: solve the graph Laplacian on free vertices.

    Under the 'zero' convention every vertex has full degree |S| (missing
    neighbors are pinned to 0); under 'ball' the degree is the in-ball
    neighbor count.  ``u0`` holds the pinned values and zeros elsewhere;
    ``edges`` is edge_arrays(ball).
    """
    n = len(u0)
    u = u0.copy()
    if len(free) == 0:
        return u, 0.0
    m = len(free)
    fmap = np.full(n, -1, dtype=np.int64)
    fmap[free] = np.arange(m)
    src, dst, ext_src = edges
    fs, fd = fmap[src], fmap[dst]
    out = fs >= 0                       # in-ball slots of free vertices
    deg = np.bincount(fs[out], minlength=m)
    if convention == "zero":
        fe = fmap[ext_src]
        deg = deg + np.bincount(fe[fe >= 0], minlength=m)   # pinned to 0
    coupled = out & (fd >= 0)
    pinned = out & (fd < 0)
    b = np.bincount(fs[pinned], weights=u[dst[pinned]], minlength=m)
    diag = np.arange(m)
    L = sp.csr_matrix((np.concatenate([-np.ones(int(coupled.sum())), deg.astype(float)]),
                       (np.concatenate([fs[coupled], diag]),
                        np.concatenate([fd[coupled], diag]))), shape=(m, m))
    x = spla.spsolve(L.tocsc(), b)
    res = np.linalg.norm(L @ x - b)
    scale = np.linalg.norm(b) if np.linalg.norm(b) > 0 else 1.0
    if not np.all(np.isfinite(x)) or res > LINEAR_RESIDUAL_TOL * scale:
        raise SolverFailure(f"linear solve residual {res:.3e} exceeds tolerance")
    u[free] = x
    return u, float(res / scale)


def _descend(u0: np.ndarray, p: float, free: np.ndarray, src, dst, ext_src,
             convention: str, grad_tol: float = DESCENT_GRAD_TOL,
             max_iter: int = DESCENT_MAX_ITER) -> Tuple[np.ndarray, int, float]:
    """Accelerated gradient descent (FISTA-style momentum with adaptive
    restart) with backtracking line search, on the free coordinates."""
    x = u0.copy()
    y = u0.copy()
    t = 1.0
    lip = 1.0
    it = 0
    check_every = 10
    while it < max_iter:
        it += 1
        ey, gy = _energy_grad(y, p, src, dst, ext_src, convention)
        gf = gy[free]
        gnorm2 = float(gf @ gf)
        while True:
            xn = y.copy()
            xn[free] = y[free] - gf / lip
            exn = energy_value(xn, p, src, dst, ext_src, convention)
            if exn <= ey - 0.5 * gnorm2 / lip + 1e-18 or lip > 1e18:
                break
            lip *= 2.0
        lip *= 0.97
        tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        yn = xn.copy()
        yn[free] = xn[free] + ((t - 1.0) / tn) * (xn[free] - x[free])
        if float(gf @ (xn[free] - x[free])) > 0.0:
            yn = xn.copy()
            tn = 1.0
        x, y, t = xn, yn, tn
        if it % check_every == 0:
            ex, gx = _energy_grad(x, p, src, dst, ext_src, convention)
            gn = float(np.linalg.norm(gx[free]))
            if gn <= grad_tol * (1.0 + ex):
                return x, it, gn
    ex, gx = _energy_grad(x, p, src, dst, ext_src, convention)
    gn = float(np.linalg.norm(gx[free]))
    if gn <= grad_tol * (1.0 + ex):
        return x, it, gn
    raise SolverFailure(
        f"descent did not converge in {max_iter} iterations "
        f"(gradient norm {gn:.3e}, energy {ex:.6e})")


def _setup(problem: EnergyProblem):
    """The pinned start vector (pinned values, zeros elsewhere), the free
    vertex indices and the edge arrays of a problem."""
    ball = problem.ball
    u0 = np.zeros(ball.n_vertices)
    pinned = np.zeros(ball.n_vertices, dtype=bool)
    for i, v in problem.constraints.items():
        u0[i] = v
        pinned[i] = True
    return u0, np.where(~pinned)[0], edge_arrays(ball)


def _report(problem: EnergyProblem, edges, solver, u, iterations, residual):
    return SolveReport(BallFunction(problem.ball, u, problem.convention),
                       energy_value(u, problem.p, *edges, problem.convention),
                       iterations, residual, solver)


def solve(problem: EnergyProblem) -> SolveReport:
    """Minimize the D(p) energy subject to the pinned values."""
    u0, free, edges = _setup(problem)
    u2, res = _solve_linear(u0, free, problem.convention, edges)
    if problem.p == 2.0:
        return _report(problem, edges, "direct-linear", u2, 0, res)
    return _report(problem, edges, "iterative-convex",
                   *_descend(u2, problem.p, free, *edges, problem.convention))


def solve_descent_only(problem: EnergyProblem) -> SolveReport:
    """Force the descent route even at p = 2 (cross-validation hook)."""
    u0, free, edges = _setup(problem)
    return _report(problem, edges, "iterative-convex",
                   *_descend(u0, problem.p, free, *edges, problem.convention))


# ---------------------------------------------------------------------------
# harmonic extension

def harmonic_extension(problem: EnergyProblem) -> SolveReport:
    """Minimize the energy with every outermost-sphere vertex pinned."""
    ball = problem.ball
    sphere = ball.sphere_indices(ball.radius)
    missing = [int(i) for i in sphere if i not in problem.constraints]
    if missing:
        raise ValueError(
            f"{len(missing)} outermost-sphere vertices are unpinned")
    return solve(problem)


# ---------------------------------------------------------------------------
# capacity

def capacity(group: GroupModel, p: float, radius: int,
             max_vertices=None, ball: Optional[CayleyBall] = None):
    """p-capacity of the identity at scale R: minimize the D(p)-energy over
    functions with u(e) = 1 that vanish on the sphere of radius R and
    outside the ball (implicit-zero convention).

    Returns (capacity, minimizer, report).
    """
    if p <= 1.0:
        raise ValueError("capacity requires p > 1")
    if radius < 1:
        raise ValueError("capacity requires R >= 1")
    if ball is None:
        ball = build_ball(group, radius, max_vertices)
    constraints = {0: 1.0}
    for i in ball.sphere_indices(radius):
        constraints[int(i)] = 0.0
    problem = EnergyProblem(ball, p, constraints, convention="zero")
    report = solve(problem)
    return report.energy, report.minimizer, report


@dataclass
class CapacityScan:
    group_spec: str
    p: float
    radii: List[int]
    capacities: List[float]
    verdict: str                       # parabolic-trend | non-parabolic-trend
    minimizers: List[BallFunction]     #   | inconclusive
    diagnostics: List[dict] = field(default_factory=list)
    theta_small: float = 0.05
    theta_large: float = 0.2


def _loglog_slope(radii: Sequence[int], caps: Sequence[float]) -> float:
    """Least-squares slope of log cap vs log R over the last half of the scan."""
    k = max(2, len(radii) // 2)
    r = np.log(np.asarray(radii[-k:], dtype=float))
    c = np.asarray(caps[-k:], dtype=float)
    if np.any(c <= 0):
        return -np.inf
    return float(np.polyfit(r, np.log(c), 1)[0])


def trend_verdict(radii: Sequence[int], caps: Sequence[float],
                  theta_small: float = 0.05, theta_large: float = 0.2) -> str:
    if len(caps) < 2:
        return "inconclusive"
    slope = _loglog_slope(radii, caps)
    last_rel = abs(caps[-1] - caps[-2]) / caps[-2] if caps[-2] > 0 else 0.0
    if caps[-1] < theta_small and slope <= -0.1:
        return "parabolic-trend"
    if last_rel < 0.01 and caps[-1] > theta_large:
        return "non-parabolic-trend"
    return "inconclusive"


def parabolicity_scan(group: GroupModel, p: float, radii: Sequence[int],
                      theta_small: float = 0.05, theta_large: float = 0.2,
                      keep_minimizers: bool = True,
                      max_vertices=None) -> CapacityScan:
    """Capacity over a strictly increasing radius schedule, with a trend
    verdict.  Capacities are checked to be nonincreasing (nested feasible
    sets)."""
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    caps: List[float] = []
    mins: List[BallFunction] = []
    diags: List[dict] = []
    for R in radii:
        c, m, rep = capacity(group, p, R, max_vertices=max_vertices)
        if caps and c > caps[-1] * (1.0 + 1e-9):
            raise SolverFailure(
                f"capacity increased from R={radii[len(caps)-1]} to R={R}")
        caps.append(c)
        mins.append(m)
        diags.append({"R": R, "iterations": rep.iterations,
                      "residual": rep.residual, "solver": rep.solver})
    verdict = trend_verdict(radii, caps, theta_small, theta_large)
    return CapacityScan(group.name, p, radii, caps, verdict,
                        mins if keep_minimizers else [], diags,
                        theta_small, theta_large)


# ---------------------------------------------------------------------------
# null sequences

class NullSequenceError(RuntimeError):
    """The scan's capacities are not small enough to subsample."""


@dataclass
class NullSequenceTerm:
    n: int
    radius: int
    alpha: FormalSum        # capacity minimizer, alpha(e) = 1
    beta: FormalSum         # n * alpha, diverges pointwise at e
    alpha_seminorm: float
    beta_seminorm: float


def null_sequence(scan: CapacityScan, p: Optional[float] = None) -> List[NullSequenceTerm]:
    """Rescaled minimizers beta_n = n * alpha_k(n), subsampled so that
    ||alpha_k(n)||_D(p) < 1/n^2, hence ||beta_n||_D(p) <= 1/n."""
    if scan.verdict != "parabolic-trend":
        raise NullSequenceError(
            f"scan verdict is {scan.verdict!r}, need parabolic-trend")
    if not scan.minimizers:
        raise NullSequenceError("scan was run without keep_minimizers")
    p = scan.p if p is None else p
    seminorms = [c ** (1.0 / p) for c in scan.capacities]
    terms: List[NullSequenceTerm] = []
    n = 1
    while True:
        k = next((i for i, s in enumerate(seminorms) if s < 1.0 / n ** 2), None)
        if k is None:
            break
        alpha = scan.minimizers[k].to_formal_sum()
        beta = float(n) * alpha
        a_semi = seminorms[k]
        b_semi = n * a_semi
        assert b_semi <= 1.0 / n + 1e-12
        terms.append(NullSequenceTerm(n, scan.radii[k], alpha, beta,
                                      a_semi, b_semi))
        n += 1
    if not terms:
        raise NullSequenceError(
            "no scan radius reaches ||alpha||_D(p) < 1; extend the radius "
            f"schedule (smallest seminorm {min(seminorms):.3e})")
    return terms


# ---------------------------------------------------------------------------
# Royden split experiment

def _source_green_like(group: GroupModel) -> Callable[[Element], float]:
    if not isinstance(group, ZdGroup):
        raise ValueError("green-like source is defined on Z^d")
    return lambda x: 1.0 / max(1, max(abs(a) for a in x))


def _source_coordinate(group: GroupModel) -> Callable[[Element], float]:
    if not isinstance(group, ZdGroup):
        raise ValueError("coordinate source is defined on Z^d")
    return lambda x: float(x[0])


def _source_end_separating(group: GroupModel, damping: float = 0.5):
    """+1 limit on the a-end, -1 on the a^-1 end, approached geometrically:
    words starting with a^{+-1} get +-(1 - damping^len), others 0."""
    if not isinstance(group, FreeGroup) or group.k < 2:
        raise ValueError("end-separating source is defined on F_k, k >= 2")

    def f(w: Element) -> float:
        if not w:
            return 0.0
        if w[0] == 1:
            return 1.0 - damping ** len(w)
        if w[0] == -1:
            return -(1.0 - damping ** len(w))
        return 0.0

    return f


def royden_source(group: GroupModel, name: str, damping: float = 0.5):
    if name == "green-like":
        return _source_green_like(group)
    if name == "coordinate":
        return _source_coordinate(group)
    if name == "end-separating":
        return _source_end_separating(group, damping)
    if name == "constant":
        return lambda x: 1.0
    raise ValueError(f"unknown royden source {name!r}")


@dataclass
class RoydenEntry:
    radius: int
    energy: float
    sup: float
    inf: float


@dataclass
class RoydenReport:
    group_spec: str
    source: str
    radii: List[int]
    entries: List[RoydenEntry]
    verdict: str    # harmonic-part-vanishing | harmonic-part-persistent
                    #   | energy-divergent | inconclusive


def _royden_verdict(radii, energies) -> str:
    if len(energies) < 2:
        return "inconclusive"
    e0, e1, e2 = energies[0], energies[-2], energies[-1]
    if e2 < 1e-10:
        return "harmonic-part-vanishing"
    if e2 >= 2.0 * e0 and e2 > e1:
        return "energy-divergent"
    if abs(e2 - e1) / max(e1, 1e-300) < 0.05 and e2 > 0.05:
        return "harmonic-part-persistent"
    if _loglog_slope(radii, energies) <= -0.3:
        return "harmonic-part-vanishing"
    return "inconclusive"


def royden_split(group: GroupModel, source: str, radii: Sequence[int],
                 p: float = 2.0, damping: float = 0.5,
                 max_vertices=None) -> RoydenReport:
    """For each R, pin the source on the sphere of radius R and solve the
    Dirichlet problem on the interior; report the (ball-only) energy trend
    of the harmonic extensions."""
    if p != 2.0:
        raise ValueError("royden_split is a p = 2 experiment")
    f = royden_source(group, source, damping)
    entries: List[RoydenEntry] = []
    for R in radii:
        ball = build_ball(group, R, max_vertices)
        constraints = {int(i): f(ball.elements[i])
                       for i in ball.sphere_indices(R)}
        rep = harmonic_extension(EnergyProblem(ball, 2.0, constraints, "ball"))
        vals = rep.minimizer.values
        entries.append(RoydenEntry(R, rep.energy, float(vals.max()),
                                   float(vals.min())))
    energies = [e.energy for e in entries]
    return RoydenReport(group.name, source, list(radii), entries,
                        _royden_verdict(list(radii), energies))


# ---------------------------------------------------------------------------
# maximum principle

@dataclass
class MaxPrincipleResult:
    applicable: bool
    passed: bool
    violation: float


def maximum_principle_check(ball: CayleyBall, u: BallFunction,
                            tol: float = 1e-8) -> MaxPrincipleResult:
    """For u harmonic on the interior, the extrema over the ball must be
    attained on the outermost sphere (within tol)."""
    interior = ball.interior_indices()
    rep = is_harmonic(u, interior, tol)
    if not rep.harmonic:
        return MaxPrincipleResult(False, False, math.inf)
    sphere = ball.sphere_indices(ball.radius)
    vals = np.real(u.values)
    viol = max(float(vals.max() - vals[sphere].max()),
               float(vals[sphere].min() - vals.min()))
    viol = max(viol, 0.0)
    return MaxPrincipleResult(True, viol <= tol, viol)
