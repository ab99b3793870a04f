"""Isoperimetric profiles, the dimension-d vertex-isoperimetric condition,
L^1-Sobolev constant estimation, the D(1) product-rule estimate for powers,
and the bootstrap from the L^1 inequality to the L^2 one with its explicit
constant.

Empirical constants here are maxima over declared test families and are
lower bounds for the true suprema; trend checks are labeled as such.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from .cayley import (EXTERIOR, BallSizeError, CayleyBall, SubsetView,
                     build_ball, vertex_boundary, vertex_boundary_elements)
from .funcspace import (BallFunction, Carrier, FormalSum, _differences,
                        _lift, _scalar, dirichlet_seminorm_pow, lp_norm,
                        modulus, power)
from .groups import Element, GroupModel, ZdGroup

EXHAUSTIVE_N_MAX = 12
# Each greedy record holds its own witness, so a profile to n holds about
# n^2 / 2 element references.  Measured on a 2-CPU VM (CPython 3.11): the
# profile to n = 1000 takes 0.04-0.3 s and peaks at 82-103 MB RSS on Z^3, H3
# and F_2, and `caylex iso --strategy greedy --nmax 1000 --out` peaks at
# 140 MB on Z^3 and 527 MB on F_2, whose witness words grow with n so that
# its JSON grows as n^3 (174 MB).  At n = 4000 the profile alone takes
# 0.6-7.4 s and 0.4-0.74 GB.
GREEDY_N_MAX = 1000
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
    counts of neighbors inside A keep |dA| = |A| - #{x in A : all inside}.

    A node adds one candidate c to A; its child's candidates are the later
    candidates of the node followed by the neighbors of c not yet seen, in
    slot order and each once.  The seen set of a node (every vertex ever a
    candidate on the way down) is its parent's plus those fresh neighbors,
    so one flag list holds it: the fresh vertices are marked before the
    descent and unmarked after.  Candidates live on one stack, a child's
    being a suffix of it.  A node of size n_max - 1 scores each child from
    the counts without adding it: the child is interior when all its
    neighbors are in A, and completes the members whose missing neighbor
    slots all point to it.  The best witness of each size
    is kept as an index list and becomes a frozenset at the end, so sets
    are visited in the order of the set-based recursion and the minima and
    witnesses are the same."""
    univ_ball = build_ball(group, max(n_max - 1, 0))
    order = univ_ball.elements
    nS = len(group.generators)
    slots, leaf = [], []
    for row in univ_ball.nbr[:, group.inverse_gen_index].tolist():
        row = [j for j in row if j != EXTERIOR]
        mult = dict.fromkeys(row, 0)
        for j in row:
            mult[j] += 1
        slots.append(row)              # one entry per in-ball slot
        # per distinct neighbor j: the inside count of j that adding this
        # vertex (m slots to j) takes to nS
        leaf.append([(j, nS - m) for j, m in mult.items()])
    inside = [0] * len(order)       # neighbors of each vertex inside A
    member = [False] * len(order)
    seen = [False] * len(order)
    seen[0] = True
    top = max(n_max, 1)
    best_size = [len(order) + 1] * (top + 1)
    best_ids: List[Optional[List[int]]] = [None] * (top + 1)
    path: List[int] = []
    cand = [0]

    def extend(lo: int, interior: int):
        # A is path; interior counts its members with all nS neighbors in A
        hi = len(cand)
        n = len(path) + 1
        for i in range(lo, hi):
            c = cand[i]
            path.append(c)
            member[c] = True
            inner = interior + (inside[c] == nS)
            for j in slots[c]:
                inside[j] += 1
                if inside[j] == nS and member[j]:
                    inner += 1
            if n - inner < best_size[n]:
                best_size[n] = n - inner
                best_ids[n] = path[:]
            if n < n_max:
                for j in slots[c]:
                    if not seen[j]:
                        seen[j] = True
                        cand.append(j)
                if n + 1 < n_max:
                    extend(i + 1, inner)
                else:
                    for k in range(i + 1, len(cand)):
                        x = cand[k]
                        done = inner + (inside[x] == nS)
                        for j, full in leaf[x]:
                            if inside[j] == full and member[j]:
                                done += 1
                        if n_max - done < best_size[n_max]:
                            best_size[n_max] = n_max - done
                            best_ids[n_max] = path + [x]
                for j in cand[hi:]:
                    seen[j] = False
                del cand[hi:]
            for j in slots[c]:
                inside[j] -= 1
            member[c] = False
            path.pop()

    extend(0, 0)
    del extend     # it refers to itself: free the tables now, not at a GC
    return [IsoperimetricRecord(n, best_size[n],
                                frozenset(order[k] for k in best_ids[n]),
                                "exhaustive", True)
            for n in range(1, top + 1) if best_ids[n] is not None]


def _greedy_profile(group: GroupModel, n_max: int) -> List[IsoperimetricRecord]:
    """Grow from {e}, always absorbing the frontier vertex with the most
    neighbors already inside, ties broken by the largest normal form; an
    upper-bound heuristic.

    One dict counts, for A and its frontier, the neighbors inside A; it
    gives |dA| = |A| - #{x in A : count[x] = |S|}.  The frontier is a heap
    of (-count, reversed normal form, element) entries, one pushed per
    count change.  Counts only grow, so an element's current entry comes
    up before its older ones, which are dropped, the element being in A by
    then; the first entry outside A is the frontier maximum of (count,
    element), and the picks and records are those of a full rescan.  On
    Z^d every frontier vertex of a line has one inside neighbor, so the
    tie-break grows a straight line along +e_1 with |dA| = n (Z^3, n = 500:
    boundary 500, witness (0..499, 0, 0)).  perfbench/reference.json pins
    these records, so a better tie-break needs a benchmark re-baseline.
    Each record holds its own witness, so memory grows as n^2 and
    isoperimetric_profile caps n at GREEDY_N_MAX."""
    nS = len(group.generators)
    count: Dict[Element, int] = {}
    A: Set[Element] = set()
    interior = 0
    records = []
    heap: List[Tuple[int, tuple, Element]] = []
    pick = group.identity()
    while True:
        A.add(pick)
        interior += count.get(pick, 0) == nS
        for g in group.generators:
            y = group.multiply(pick, g)
            c = count[y] = count.get(y, 0) + 1
            if y in A:
                interior += c == nS
            else:
                # negated letters then +inf reverse the tuple order, also
                # between a word and its prefixes
                heapq.heappush(heap, (-c, (*(-v for v in y), math.inf), y))
        records.append(IsoperimetricRecord(len(A), len(A) - interior,
                                           frozenset(A), "greedy", False))
        if len(A) >= n_max:
            break
        while heap and heap[0][2] in A:
            heapq.heappop(heap)
        if not heap:
            break
        pick = heapq.heappop(heap)[2]
    return records


def _ball_family_profile(group: GroupModel, n_max: int) -> List[IsoperimetricRecord]:
    """The balls B_r with at most n_max vertices.  One ball is built, its
    radius doubled until it holds more than n_max vertices or the whole
    (finite) group; once a radius exceeds the vertex cap, the radius is
    bisected between the last one that fit and the least one that
    exceeded.  Each B_r is read from it by restrict."""
    cap = max(4 * n_max, 1000)
    fits, over, r = 0, None, 1      # B_fits has at most n_max vertices,
    while True:                     # B_over more than cap
        try:
            ball = build_ball(group, r, max_vertices=cap)
        except BallSizeError as err:
            over, overflow = r, err
        else:
            if ball.n_vertices > n_max or not ball.sphere_sizes[-1]:
                break
            fits = r
        if over is None:
            r = 2 * r
        elif over == fits + 1:
            raise overflow
        else:
            r = (fits + over) // 2
    ball.elements                   # decoded once, shared by every B_r
    records = []
    for r in range(ball.radius + 1):
        sub = ball.restrict(r)
        if sub.n_vertices > n_max or not sub.sphere_sizes[r]:
            break
        whole = np.ones(sub.n_vertices, dtype=bool)
        b = vertex_boundary(sub, SubsetView(sub, whole))
        records.append(IsoperimetricRecord(sub.n_vertices, len(b),
                                           frozenset(sub.elements),
                                           "ball-family", False))
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
    limit = {"exhaustive": EXHAUSTIVE_N_MAX,
             "greedy": GREEDY_N_MAX}.get(strategy, HEURISTIC_N_MAX)
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
    """1 - |x|/R on the ball of radius R >= 1 (word metric)."""
    if radius < 1:
        raise ValueError("tent_function requires R >= 1")
    return _tent(build_ball(group, radius))


def _tent(ball: CayleyBall) -> FormalSum:
    """1 - |x|/R on the ball B_R itself."""
    lengths = ball.word_length.tolist()       # FormalSum drops the zeros at R
    return FormalSum(ball.group, {x: 1.0 - r / ball.radius
                                  for x, r in zip(ball.elements, lengths)})


def _random_draw(ball: CayleyBall, rng: np.random.Generator,
                 max_support: int, kind: str, high: float):
    """(vertex ids, values) of a random function on 1..max_support distinct
    ball vertices: standard normal values ('real'), normal real and
    imaginary parts ('complex'), or uniform values in [0, high)
    ('nonnegative')."""
    k = int(rng.integers(1, max_support + 1))
    ids = rng.choice(ball.n_vertices, size=min(k, ball.n_vertices), replace=False)
    if kind == "nonnegative":
        vals = rng.uniform(0.0, high, size=len(ids))
    elif kind == "complex":
        vals = rng.normal(size=(len(ids), 2)).view(complex).ravel()
    else:
        vals = rng.normal(size=len(ids))
    return ids, vals


def random_ball_function(ball: CayleyBall, rng: np.random.Generator,
                         max_support: int = 25, kind: str = "real",
                         high: float = 1.0) -> BallFunction:
    """The draw of random_formal_sum as a dense 'zero'-convention function
    on the ball, where every scalar operator is exact for it."""
    ids, vals = _random_draw(ball, rng, max_support, kind, high)
    values = np.zeros(ball.n_vertices, dtype=vals.dtype)
    values[ids] = vals
    return BallFunction(ball, values)


def random_formal_sum(ball: CayleyBall, rng: np.random.Generator,
                      max_support: int = 25, kind: str = "real",
                      high: float = 1.0) -> FormalSum:
    """Random function on 1..max_support distinct ball vertices, in draw
    order (see _random_draw)."""
    ids, vals = _random_draw(ball, rng, max_support, kind, high)
    return FormalSum(ball.group, {ball.elements[i]: v
                                  for i, v in zip(ids.tolist(), vals.tolist())})


def random_nonnegative(group: GroupModel, rng: np.random.Generator,
                       support_radius: int = 5, ball=None) -> FormalSum:
    """Random non-negative function on 1..40 vertices of a ball window."""
    if ball is None:
        ball = build_ball(group, support_radius)
    return random_formal_sum(ball, rng, 40, "nonnegative")


def sobolev_test_set(group: GroupModel, profile: Optional[IsoperimetricProfile],
                     n_random: int, rng: np.random.Generator) -> List[Tuple[str, FormalSum]]:
    """Indicators of the profile witnesses, tents of radius 2, 4 and 8, and
    n_random random non-negative functions in the radius-8 ball.  One ball,
    B_8, is built; the smaller tents are read from its restrictions."""
    if profile is not None and profile.group_spec != group.name:
        raise ValueError(f"profile of {profile.group_spec} given for "
                         f"group {group.name}")
    out: List[Tuple[str, FormalSum]] = []
    if profile is not None:
        for rec in profile.records:
            out.append((f"indicator-n{rec.n}",
                        FormalSum.indicator(group, rec.witness)))
    ball = build_ball(group, 8)
    for r in (2, 4, 8):
        out.append((f"tent-R{r}", _tent(ball.restrict(r))))
    for i in range(n_random):
        out.append((f"random-{i}",
                    random_nonnegative(group, rng, ball=ball)))
    return out


def sobolev_constant(group: GroupModel, d: float,
                     profile: Optional[IsoperimetricProfile] = None,
                     n_random: int = 500, seed: int = 0,
                     test_set: Optional[List[Tuple[str, FormalSum]]] = None) -> SobolevReport:
    """Empirical max of ||a||_{d/(d-1)} / ||a||_D(1) over the test set
    (indicators of profile witnesses, tents, random non-negative functions);
    a lower bound for the true constant."""
    if d <= 1:
        raise ValueError("sobolev_constant requires d > 1")
    if test_set is None:
        rng = np.random.default_rng(seed)
        test_set = sobolev_test_set(group, profile, n_random, rng)
    q = d / (d - 1.0)
    best = 0.0
    best_kind = ""
    count = 0
    for kind, alpha in test_set:
        if not alpha.data:
            continue   # zero function excluded
        (f,), _, _ = _lift([alpha])
        d1 = dirichlet_seminorm_pow(f, 1.0)
        ratio = lp_norm(f, q) / d1
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


def lemma61_check(alpha: Carrier, t: float) -> PowerEstimateResult:
    """The power estimate for a FormalSum or a 'zero'-convention
    BallFunction holding alpha's whole support; for a stack, the fields
    are arrays of row results."""
    if not t >= 2:
        raise ValueError("the power estimate needs t >= 2")
    if not alpha.is_nonnegative():
        raise ValueError("alpha must be non-negative real")
    if isinstance(alpha, BallFunction) and alpha.convention != "zero":
        raise ValueError("the power estimate needs a 'zero'-convention "
                         "BallFunction")
    (f,), _, _ = _lift([alpha])
    lhs = dirichlet_seminorm_pow(power(f, t), 1.0)
    # an exterior slot reads 0 under 'zero', as alpha does off its support
    spread = np.abs(_differences(f)).sum(axis=-1)
    rhs = 2.0 * t * _scalar(np.sum(f.values ** (t - 1.0) * spread, axis=-1))
    return PowerEstimateResult(lhs, rhs, rhs - lhs)


def mean_value_step(r, s, t):
    """Scalar inequality r^t - s^t <= t (r^{t-1} + s^{t-1}) (r - s)
    for 0 <= s <= r; returns the margin (>= 0)."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return t * (r ** (t - 1) + s ** (t - 1)) * (r - s) - (r ** t - s ** t)


def sobolev_p2(report: SobolevReport, group: GroupModel,
               verification_set: Iterable[FormalSum]) -> SobolevReport:
    """Complete the report with C' = 2 C (2d-2)/(d-2) and check the p = 2
    inequality ||a||_{2d/(d-2)} <= C' ||a||_D(2) on the verification set,
    and the exponent identities on its first 20 functions.  Violations are
    counted, not hidden."""
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
        (f,), _, _ = _lift([alpha])
        lhs = lp_norm(f, p_star)
        # D(2) norm (seminorm + identity term), as in the target inequality
        semi = dirichlet_seminorm_pow(f, 2.0)
        rhs = cprime * (semi ** 0.5)
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -1e-12 * (1 + rhs):
            violations += 1
        if count <= 20:
            # ||a^{(2d-2)/(d-2)}||_{d/(d-1)} = ||a^{2d/(d-2)}||_1^{(d-1)/d}
            # ||a^{d/(d-2)}||_2 = ||a^{2d/(d-2)}||_1^{1/2}
            t = (2.0 * d - 2.0) / (d - 2.0)
            a_t = power(modulus(f), t)
            big = power(modulus(f), 2.0 * d / (d - 2.0))
            l1 = sum(big.values.tolist())
            r1 = abs(lp_norm(a_t, d / (d - 1.0)) - l1 ** ((d - 1.0) / d))
            half = power(modulus(f), d / (d - 2.0))
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
                         n_random: int = 100) -> EquivalenceProbe:
    """Run the isoperimetric and Sobolev estimates on the same group and d,
    and report the indicator bridge: for indicators, ||1_A||_{d/(d-1)} =
    |A|^{(d-1)/d} while ||1_A||_D(1) is between 2|dA| and 2|S||dA|, so the
    two conditions track each other up to that bounded factor."""
    profile = isoperimetric_profile(group, n_max)
    sob = sobolev_constant(group, d, profile, n_random=n_random)
    factors = []
    for rec in profile.records:
        ind = FormalSum.indicator(group, set(rec.witness))
        d1 = dirichlet_seminorm_pow(ind, 1.0)
        factors.append(d1 / rec.boundary_size)
    return EquivalenceProbe(group.name, d, check_ISd(profile, d), sob,
                            min(factors), max(factors))
