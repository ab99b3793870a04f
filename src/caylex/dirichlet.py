"""Dirichlet-energy minimization on Cayley balls.

Covers p-harmonic extension of boundary data, the p-capacity of the
identity, capacity scans with trend verdicts, null-sequence construction
from capacity minimizers, the Royden-split experiment, and a maximum
principle check.

Every problem is solved on a cell graph (word_length, sizes, nbr), the one
input of a cell solve: the cells of an equitable partition of its ball,
numbered by word length and then orbit key (CayleyBall.orbit_ranks), with
the slots of each cell's first vertex.  B_r is the index prefix of B_R, so
its cells are the first rows of B_R's graph, and a solve on B_r drops the
slots that leave them (cayley.edge_arrays).  The minimizer is constant on
cells, so the graph, with slot multiplicities as weights, gives it, and
its energy (funcspace.energy_value with those weights), residuals and
gradient norms are those of its lift onto the whole ball; the report takes
the energy from the cells.  A capacity scan takes the graph in closed form
where the family has one (cayley.cell_graph: Z^d, F_k) and from one built
ball otherwise (CayleyBall.cell_graph: H3), and lifts a minimizer onto a
ball only when it is read.  A problem posed on a ball (harmonic
extensions; the Royden split, on prefixes of one ball) takes its ball's
graph when the pins are constant on the cells, and its table nbr, each
vertex a cell, otherwise.  The p = 2 route assembles the (SPD) graph
Laplacian on free cells and solves it; other exponents run damped Newton
steps on the D(p) energy (the same Laplacian with |d|^(p-2) weights, the
same inner solve, Armijo backtracking), warm-started from the p = 2
solution.  The inner solve factors a narrow system as a band: the capacity
cells of Z^1, of Z^2 up to R = 154, of Z^3 up to R = 31, of H3 up to R = 7
and of F_k, with every Newton Hessian on them.  A wider 2-D system, Z^2
cells up to R = 361 and Z^2 vertices up to R = 128, gets a sparse LU
factor (SuperLU).  The rest, H3, Z^3 and F_k vertices and larger cell
systems, runs a Jacobi-preconditioned conjugate gradient loop of this
module's own, in the arithmetic of scipy's cg, which falls back to sparse
LU only when CG has not converged after one iteration per unknown
(BAND_MAX_FILL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cayley import CayleyBall, build_ball, cell_graph, edge_arrays
from .funcspace import BallFunction, FormalSum, energy_value, is_harmonic
from .groups import FreeGroup, GroupModel, ZdGroup

LINEAR_RESIDUAL_TOL = 1e-10
CG_RTOL = 1e-12               # CG stop: |L x - b| <= CG_RTOL |b|
DESCENT_GRAD_TOL = 1e-8
# The slowest measured capacity (Z^2, Z^3, F_2, H3; p in {1.25, 1.5, 3, 6})
# that converges at a Newton rate takes 122 steps (Z^3, p = 1.5, R = 8).
NEWTON_MAX_ITER = 200
# _solve_narrow's routes for an SPD system of m unknowns and band width bw
# (the largest col - row of its CSR).  Cells are numbered sphere by sphere
# (word length, then orbit key), so a cell couples only to cells one sphere
# away and bw spans about two spheres.  The band takes a system whose band,
# (bw + 1) m entries, is at most BAND_MAX_FILL times its nnz, which bounds
# its memory by a multiple of L's: a flop rule (bw^2 <= nnz) would band the
# Z^2 R=512 cells (peak RSS 214 -> 277 MB).  SuperLU takes a wider system
# with bw^2 <= 8 m, a 2-D one, whose nested-dissection fill is O(m log m):
# Z^2 cells (bw^2 / m = 1) and vertices (below 8), not Z^3 cells (about
# R / 4) or H3.  Its factor peaks about 0.7 kB per unknown above CG (Z^2
# cells at R = 256, 384, 512: +11, +26, +48 MB), so LU_MAX_UNKNOWNS keeps
# Z^2 cells past R = 361 on CG.  Best of 5 single solves on one BLAS thread
# of a 2-CPU VM ('zero': capacity cells, 'ball': harmonic extensions on
# vertices), in ms, * the route taken:
#   system               m     bw  band/nnz bw^2/m   band     LU      CG
#   Z^3 R=32 cells     1136    96    16.1     8.1     1.9     4.2   *3.2
#   Z^2 R=256 cells   16511   128    26       1.0    27     *31     198
#   Z^2 R=64 vertices  8065   252    51       7.9    38     *18      28
#   Z^3 R=64 cells     8161   363    56      16      41      61     *16
#   H3 R=12 vertices   6281  1972   461     619     404      31     *3.6
#   F_2 R=8 vertices   4373  2916   973    1944     426       1.3   *1.3
BAND_MAX_FILL = 16
LU_MAX_UNKNOWNS = 32768
TREND_THETA_SMALL = 0.05      # a parabolic trend ends below this capacity
TREND_THETA_LARGE = 0.2       # a non-parabolic trend levels off above it


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
        if self.convention not in ("zero", "ball"):
            raise ValueError(f"unknown exterior convention {self.convention!r}")


@dataclass
class SolveReport:
    _minimizer: object                # BallFunction, or a function that
                                      # returns it on first read
    energy: float                     # D(p) seminorm^p under the convention
    iterations: int
    residual: float                   # p = 2: |Lx - b| / |b|; else |g_free|
    solver: str                       # 'direct-linear' (p = 2 system: band,
                                      # CG or LU) | 'iterative-convex' (Newton)

    @property
    def minimizer(self) -> BallFunction:
        """The minimizer on the ball, lifted from the cell values when this
        is first read."""
        if not isinstance(self._minimizer, BallFunction):
            self._minimizer = self._minimizer()
        return self._minimizer


# ---------------------------------------------------------------------------
# the problem on cells

@dataclass
class _Cells:
    """A problem on the cells of an equitable partition of its ball.  Each
    vertex of cell a has the same slots into each cell, so the slots of a's
    first vertex, each weighted by the cell size n_a, stand for all of a's
    slots; in-ball weights are symmetric, as every slot has an inverse."""
    sizes: np.ndarray       # (k,) vertices per cell, as floats
    x0: np.ndarray          # (k,) pinned values, zeros elsewhere
    free: np.ndarray        # unpinned cells
    edges: tuple            # (src, dst, ext) cells of the first vertices' slots
    w: np.ndarray           # weight of each in-ball slot: n_src
    w_ext: np.ndarray       # weight of each exterior slot: n_src, 0 under 'ball'

    def norm(self, g: np.ndarray) -> float:
        """sqrt(sum g_a^2 / n_a): the norm on the ball of the lift of g / n."""
        return float(np.linalg.norm(g / np.sqrt(self.sizes[self.free])))


def _pin_indices(problem: EnergyProblem) -> np.ndarray:
    """The pinned vertex indices, in the order of problem.constraints."""
    c = problem.constraints
    pins = np.fromiter(c, dtype=np.int64, count=len(c))
    if pins.min() < 0 or pins.max() >= problem.ball.n_vertices:
        raise ValueError("pinned vertex index outside the ball")
    return pins


def _graph_cells(graph, x0: np.ndarray, fixed: np.ndarray, zero: bool) -> _Cells:
    """The problem on the first k = len(x0) cells of a cell graph
    (word_length, sizes, nbr), those of B_r for some r: x0 holds their
    pinned values and fixed marks them, and a slot that leaves them
    (cayley.edge_arrays) leaves B_r, into the zero exterior under 'zero'."""
    k = len(x0)
    sizes = graph[1][:k].astype(float)
    src, dst, ext = edge_arrays(graph[2], k)
    return _Cells(sizes, x0, np.flatnonzero(~fixed), (src, dst, ext),
                  sizes[src], sizes[ext] * float(zero))


def _setup(problem: EnergyProblem) -> Tuple[np.ndarray, _Cells]:
    """(ranks, q): the problem q on the cells of its ball (_ball_cells)."""
    ball, c = problem.ball, problem.constraints
    return _ball_cells(ball, ball.radius, _pin_indices(problem),
                       np.fromiter(c.values(), dtype=float, count=len(c)),
                       problem.convention == "zero")


def _ball_cells(ball: CayleyBall, r: int, pins: np.ndarray, values: np.ndarray,
                zero: bool) -> Tuple[np.ndarray, _Cells]:
    """(ranks, q): the problem q with the given values on the vertices
    pins, on the prefix B_r of the ball, ranks the cell of each vertex of
    B_r: ball.orbit_ranks (its prefix) when the pins are constant on those
    cells, on the ball's cell graph, and single vertices, on its nbr,
    otherwise."""
    n = sum(ball.sphere_sizes[:r + 1])
    u0, pinned = np.zeros(n), np.zeros(n, dtype=bool)
    u0[pins], pinned[pins] = values, True
    ranks = ball.orbit_ranks if r == ball.radius else ball.orbit_ranks[:n]
    k = int(ranks.max()) + 1
    x0, fixed = np.zeros(k), np.zeros(k, dtype=bool)
    x0[ranks], fixed[ranks] = u0, pinned
    if np.array_equal(x0[ranks], u0) and np.array_equal(fixed[ranks], pinned):
        graph = ball.cell_graph()
    else:
        ranks, x0, fixed = np.arange(n), u0, pinned
        graph = ball.word_length, np.ones(ball.n_vertices), ball.nbr
    return ranks, _graph_cells(graph, x0, fixed, zero)


# ---------------------------------------------------------------------------
# energy and gradient on cells: the energy of the lift, each slot of a
# cell's first vertex standing for the slots of all its vertices

def _energy(x, p, q: _Cells):
    return energy_value(x, p, *q.edges, q.w, q.w_ext)


def _energy_grad(x, p, q: _Cells):
    src, dst, ext = q.edges
    d = x[dst] - x[src]
    gd = p * q.w * np.sign(d) * np.abs(d) ** (p - 1.0)
    ge = 2.0 * p * q.w_ext * np.sign(x[ext]) * np.abs(x[ext]) ** (p - 1.0)
    k = len(x)
    return (_energy(x, p, q),
            np.bincount(dst, gd, k) - np.bincount(src, gd, k)
            + np.bincount(ext, ge, k))


# ---------------------------------------------------------------------------
# solvers

def _laplacian(u, free, edges, w, w_ext):
    """Graph Laplacian on the free vertices with in-ball slot weights w and
    exterior slot weights w_ext (diagonal only), and the pull b of the
    pinned values of u.  Slots come in inverse pairs: it is symmetric."""
    m = len(free)
    diag = np.arange(m)
    fmap = np.full(len(u), -1, dtype=np.int64)
    fmap[free] = diag
    src, dst, ext_src = edges
    fs, fd, fe = fmap[src], fmap[dst], fmap[ext_src]
    out = fs >= 0                       # in-ball slots of free vertices
    deg = (np.bincount(fs[out], weights=w[out], minlength=m)
           + np.bincount(fe[fe >= 0], weights=w_ext[fe >= 0], minlength=m))
    coupled = out & (fd >= 0)
    pinned = out & (fd < 0)
    b = np.bincount(fs[pinned], weights=w[pinned] * u[dst[pinned]], minlength=m)
    L = sp.csr_matrix((np.concatenate([-w[coupled], deg]),
                       (np.concatenate([fs[coupled], diag]),
                        np.concatenate([fd[coupled], diag]))), shape=(m, m))
    return L, b


def _solve_spd(L, b: np.ndarray) -> np.ndarray:
    """Solve the SPD system L x = b (L in CSR) by conjugate gradients with
    the Jacobi preconditioner, and by sparse LU only if CG has not
    converged after m = len(b) iterations.  The loop is scipy's cg
    recurrence, the same operations in the same order from x = 0, so its
    iterates are scipy's bit for bit, without the LinearOperator calls
    around each matvec and preconditioner step.  It stops once |r| <
    CG_RTOL |b|, checked after every update, the m-th too (scipy's cg
    checks only before each, so it calls a system solved by its m-th
    update unconverged).  The caller certifies the answer.  It serves the
    systems _solve_narrow does not factor, and any it cannot."""
    m = len(b)
    bnorm = np.linalg.norm(b)
    x, r, p = np.zeros(m), b.copy(), np.zeros(m)
    if bnorm == 0.0:
        return x
    tol = CG_RTOL * bnorm
    dinv = 1.0 / L.diagonal()
    rho_prev = np.inf                   # so that the first p is z
    for _ in range(m):
        z = dinv * r
        rho = np.dot(r, z)
        p *= rho / rho_prev
        p += z
        q = L @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) < tol:
            return x
        rho_prev = rho
    return spla.spsolve(L.tocsc(), b)


def _solve_narrow(L, b: np.ndarray) -> np.ndarray:
    """Solve the SPD system L x = b (L in CSR, as _laplacian builds it) by a
    banded Cholesky factorisation (LAPACK pbsv) when its band is at most
    BAND_MAX_FILL times its nnz, else by SuperLU (minimum degree on L + L^T,
    symmetric mode) when bw^2 <= 8 m <= 8 LU_MAX_UNKNOWNS, and by _solve_spd
    otherwise or when a factorisation finds L not positive definite or
    singular, so these routes add no failure mode.  The band is copied from
    L's CSR."""
    m = len(b)
    rows = np.repeat(np.arange(m), np.diff(L.indptr))
    offset = L.indices - rows
    bw = int(offset.max())
    if (bw + 1) * m <= BAND_MAX_FILL * L.nnz:
        upper = offset >= 0
        ab = np.zeros((bw + 1, m), order="F")     # ab[bw + i - j, j] = L[i, j]
        ab[bw - offset[upper], L.indices[upper]] = L.data[upper]
        try:
            return sla.solveh_banded(ab, b, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError:
            pass
    elif bw * bw <= 8 * m <= 8 * LU_MAX_UNKNOWNS:
        try:
            return spla.splu(L.tocsc(), permc_spec="MMD_AT_PLUS_A",
                             options={"SymmetricMode": True}).solve(b)
        except RuntimeError:            # exactly singular
            pass
    return _solve_spd(L, b)


def _solve_linear(q: _Cells) -> Tuple[np.ndarray, float]:
    """Minimize the p=2 energy: solve the cell Laplacian on free cells by
    _solve_narrow (a band or SuperLU factorisation, else CG) and certify
    the full-ball residual, |Lx - b| <= LINEAR_RESIDUAL_TOL |b| in the norm
    _Cells.norm, else raise SolverFailure.

    Under the 'zero' convention every vertex has full degree |S| (missing
    neighbors are pinned to 0); under 'ball' the degree is the in-ball
    neighbor count.
    """
    x = q.x0.copy()
    if len(q.free) == 0:
        return x, 0.0
    L, b = _laplacian(x, q.free, q.edges, q.w, q.w_ext)
    y = _solve_narrow(L, b)
    res, bnorm = q.norm(L @ y - b), q.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    if not np.all(np.isfinite(y)) or res > LINEAR_RESIDUAL_TOL * scale:
        raise SolverFailure(f"linear solve residual {res:.3e} exceeds tolerance")
    x[q.free] = y
    return x, float(res / scale)


def _newton(x0: np.ndarray, p: float, q: _Cells) -> Tuple[np.ndarray, int, float]:
    """Damped Newton with Armijo backtracking on the free cells.

    The Hessian is 2 L with slot weights p(p-1) |d|^(p-2), |d| floored at
    eps = |g|^2 clamped to [1e-12, 1e-2] (g the free gradient, |g| its
    full-ball norm): the floor bounds the weights for p < 2 and keeps L
    definite for p > 2.  The step solves 2 L s = -g by _solve_narrow, which
    factors a Hessian as a band or by SuperLU when its pattern, that of the
    p = 2 system, allows, and leaves the rest to CG; a step that is not
    finite or not a descent direction becomes the full-ball -g.
    """
    src, dst, ext = q.edges
    free = q.free
    c = p * (p - 1.0)
    x = x0.copy()
    for it in range(NEWTON_MAX_ITER + 1):
        E, g = _energy_grad(x, p, q)
        gf = g[free]
        gn = q.norm(gf)
        if gn <= DESCENT_GRAD_TOL * (1.0 + E):
            return x, it, gn
        eps = min(max(gn * gn, 1e-12), 1e-2)
        L, _ = _laplacian(x, free, q.edges,
                          c * q.w * np.maximum(np.abs(x[dst] - x[src]), eps) ** (p - 2.0),
                          c * q.w_ext * np.maximum(np.abs(x[ext]), eps) ** (p - 2.0))
        step = _solve_narrow(L, -0.5 * gf)
        slope = float(gf @ step)
        if not (np.all(np.isfinite(step)) and slope < 0.0):
            step, slope = -gf / q.sizes[free], -gn * gn
        # the slack 1e-14 (1 + E) covers rounding in the energy sum, which
        # near the minimizer exceeds the decrease of a full step
        for t in 0.5 ** np.arange(64):
            v = x.copy()
            v[free] += t * step
            if _energy(v, p, q) <= E + 1e-4 * t * slope + 1e-14 * (1.0 + E):
                break
        x = v
    raise SolverFailure(f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                        f"(gradient norm {gn:.3e}, energy {E:.6e})")


def _minimize(q: _Cells, p: float):
    """(solver, x, iterations, residual) of the minimizing cell values x:
    the p = 2 solve, then Newton from it for p != 2."""
    x, residual = _solve_linear(q)
    if p == 2.0:
        return "direct-linear", x, 0, residual
    return ("iterative-convex", *_newton(x, p, q))


def _report(lift, p: float, q: _Cells, solver, x, iterations, residual):
    """The report of cell values x: the energy of x on the cells, which is
    that of their lift onto the ball, lift(x), made when the minimizer is
    first read."""
    return SolveReport(partial(lift, x), _energy(x, p, q), iterations,
                       residual, solver)


def solve(problem: EnergyProblem) -> SolveReport:
    """Minimize the D(p) energy subject to the pinned values."""
    ranks, q = _setup(problem)

    def lift(x):
        return BallFunction(problem.ball, x[ranks], problem.convention)

    return _report(lift, problem.p, q, *_minimize(q, problem.p))


# ---------------------------------------------------------------------------
# harmonic extension

def harmonic_extension(problem: EnergyProblem) -> SolveReport:
    """Minimize the energy with every outermost-sphere vertex pinned."""
    ball = problem.ball
    pinned = np.zeros(ball.n_vertices, dtype=bool)
    pinned[_pin_indices(problem)] = True
    missing = np.count_nonzero(~pinned[ball.sphere_indices(ball.radius)])
    if missing:
        raise ValueError(f"{missing} outermost-sphere vertices are unpinned")
    return solve(problem)


# ---------------------------------------------------------------------------
# radius scans and capacity

def _radii(radii: Sequence[int]) -> List[int]:
    radii = list(radii)
    if not radii or radii[0] < 1 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be >= 1 and strictly increasing")
    return radii


def _scan(radii: List[int], step, what: str) -> list:
    """step(R) for each R of a radius schedule.  A SolverFailure is
    re-raised with the prefix what + "R=<R>"."""
    out = []
    for R in radii:
        try:
            out.append(step(R))
        except SolverFailure as exc:
            raise SolverFailure(f"{what}R={R}: {exc}") from exc
    return out


def capacity(group: GroupModel, p: float, radius: int):
    """p-capacity of the identity at scale R: minimize the D(p)-energy over
    functions with u(e) = 1 that vanish on the sphere of radius R and
    outside the ball (implicit-zero convention), as a one-radius
    parabolicity_scan.  Returns (capacity, minimizer, report)."""
    report = parabolicity_scan(group, p, [radius]).reports[0]
    return report.energy, report.minimizer, report


@dataclass
class CapacityScan:
    p: float
    radii: List[int]
    capacities: List[float]
    verdict: str                       # parabolic-trend | non-parabolic-trend
    reports: List[SolveReport]         #   | inconclusive


def _loglog_slope(radii: Sequence[int], caps: Sequence[float]) -> float:
    """Least-squares slope of log cap vs log R over the last half of the scan."""
    k = max(2, len(radii) // 2)
    r = np.log(np.asarray(radii[-k:], dtype=float))
    c = np.asarray(caps[-k:], dtype=float)
    if np.any(c <= 0):
        return -np.inf
    return float(np.polyfit(r, np.log(c), 1)[0])


def trend_verdict(radii: Sequence[int], caps: Sequence[float]) -> str:
    if len(caps) < 2:
        return "inconclusive"
    slope = _loglog_slope(radii, caps)
    last_rel = abs(caps[-1] - caps[-2]) / caps[-2] if caps[-2] > 0 else 0.0
    if caps[-1] < TREND_THETA_SMALL and slope <= -0.1:
        return "parabolic-trend"
    if last_rel < 0.01 and caps[-1] > TREND_THETA_LARGE:
        return "non-parabolic-trend"
    return "inconclusive"


def parabolicity_scan(group: GroupModel, p: float,
                      radii: Sequence[int]) -> CapacityScan:
    """Capacity over a strictly increasing radius schedule, with a trend
    verdict.  Capacities are checked to be nonincreasing (nested feasible
    sets).

    Every radius is solved on the cells of one cell graph of the largest
    ball: the closed form where the family has one (Z^d, F_k), checked
    against the vertex cap and made without the ball, else that of a build
    of the ball.  Each report keeps its cell values and lifts them onto
    the ball when its minimizer is first read, every lift restricted from
    that one build of the largest ball."""
    if p <= 1.0:
        raise ValueError("capacity requires p > 1")
    radii = _radii(radii)
    ball = cache(partial(build_ball, group, radii[-1]))
    graph = cell_graph(group, radii[-1]) or ball().cell_graph()
    word_length = graph[0]

    def lift(R, x):
        sub = ball().restrict(R)
        return BallFunction(sub, x[sub.orbit_ranks], "zero")

    def step(R):
        k = int(np.searchsorted(word_length, R, side="right"))
        fixed = word_length[:k] == R
        fixed[0] = True
        x0 = np.zeros(k)
        x0[0] = 1.0
        q = _graph_cells(graph, x0, fixed, True)
        return _report(partial(lift, R), p, q, *_minimize(q, p))

    reports = _scan(radii, step, f"capacity of {group.name} at p={p}, ")
    caps = [rep.energy for rep in reports]
    for k in range(1, len(caps)):
        if caps[k] > caps[k - 1] * (1.0 + 1e-9):
            raise SolverFailure(
                f"capacity increased from R={radii[k - 1]} to R={radii[k]}")
    return CapacityScan(p, radii, caps, trend_verdict(radii, caps), reports)


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


def null_sequence(scan: CapacityScan) -> List[NullSequenceTerm]:
    """Rescaled minimizers beta_n = n * alpha_k(n), subsampled so that
    ||alpha_k(n)||_D(p) < 1/n^2, hence ||beta_n||_D(p) <= 1/n."""
    if scan.verdict != "parabolic-trend":
        raise NullSequenceError(
            f"scan verdict is {scan.verdict!r}, need parabolic-trend")
    seminorms = [c ** (1.0 / scan.p) for c in scan.capacities]
    terms: List[NullSequenceTerm] = []
    n = 1
    while True:
        k = next((i for i, s in enumerate(seminorms) if s < 1.0 / n ** 2), None)
        if k is None:
            break
        alpha = scan.reports[k].minimizer.to_formal_sum()
        beta = float(n) * alpha
        a_semi = seminorms[k]
        terms.append(NullSequenceTerm(n, scan.radii[k], alpha, beta,
                                      a_semi, n * a_semi))
        n += 1
    if not terms:
        raise NullSequenceError(
            "no scan radius reaches ||alpha||_D(p) < 1; extend the radius "
            f"schedule (smallest seminorm {min(seminorms):.3e})")
    return terms


# ---------------------------------------------------------------------------
# Royden split experiment

def royden_source(group: GroupModel, name: str, damping: float = 0.5):
    """The source on each row of one sphere (CayleyBall.sphere_rows)."""
    if name in ("green-like", "coordinate") and not isinstance(group, ZdGroup):
        raise ValueError(f"{name} source is defined on Z^d")
    if name == "green-like":
        return lambda x: 1.0 / np.maximum(1, np.abs(x).max(axis=1))
    if name == "coordinate":
        return lambda x: x[:, 0].astype(float)
    if name == "end-separating":
        if not isinstance(group, FreeGroup) or group.k < 2:
            raise ValueError("end-separating source is defined on F_k, k >= 2")
        # words starting with a^{+-1} get +-(1 - damping^len), others 0
        def end_separating(w):
            first = w[:, :1].sum(axis=1)        # 0 for the empty word
            return np.where(abs(first) == 1,
                            (1.0 - damping ** w.shape[1]) * first, 0.0)
        return end_separating
    if name == "constant":
        return lambda x: np.ones(len(x))
    raise ValueError(f"unknown royden source {name!r}")


@dataclass
class RoydenEntry:
    radius: int
    energy: float
    sup: float
    inf: float


@dataclass
class RoydenReport:
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
                 damping: float = 0.5) -> RoydenReport:
    """For each R, pin the source on the sphere of radius R and solve the
    p = 2 Dirichlet problem on the interior; report the (ball-only) energy
    trend of the harmonic extensions, each on a prefix of one ball."""
    f = royden_source(group, source, damping)
    radii = _radii(radii)
    ball = build_ball(group, radii[-1])

    def step(R):
        q = _ball_cells(ball, R, ball.sphere_indices(R),
                        f(ball.sphere_rows(R)), False)[1]
        x = _solve_linear(q)[0]         # each cell holds a vertex of B_R
        return RoydenEntry(R, _energy(x, 2.0, q), float(x.max()),
                           float(x.min()))

    entries = _scan(radii, step, f"royden split of {group.name} at ")
    return RoydenReport(source, radii, entries,
                        _royden_verdict(radii, [e.energy for e in entries]))


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
