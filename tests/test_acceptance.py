"""End-to-end acceptance checks.

Each test prints one `[acceptance] <name>: PASS|FAIL` line before asserting,
so the suite output doubles as a scorecard.  Two checks are known to fail
at these window sizes (marked `known-hard` in their docstrings): they are
kept faithful rather than weakened.
"""

import subprocess
import sys
import time

import numpy as np

from caylex.cayley import build_ball
from caylex.dirichlet import (capacity, null_sequence, parabolicity_scan,
                              royden_split)
from caylex.funcspace import (BallFunction, FormalSum, dirichlet_seminorm_pow,
                              harmonicity_via_pairing, is_harmonic, laplacian,
                              lp_norm, norms, pairing, power, truncate_min)
from caylex.geometry import (isoperimetric_profile, lemma61_check,
                             mean_value_step, random_nonnegative,
                             sobolev_constant, sobolev_p2, sobolev_test_set,
                             tent_function)
from caylex.groups import make_group


RESULTS = []


def _verdict(name: str, ok: bool) -> bool:
    RESULTS.append((name, ok))
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _random_sum(group, ball, rng, support=15, complex_values=False):
    ids = rng.choice(ball.n_vertices, size=min(support, ball.n_vertices),
                     replace=False)
    data = {}
    for i in ids:
        v = complex(rng.normal(), rng.normal()) if complex_values \
            else float(rng.normal())
        data[ball.elements[int(i)]] = v
    return FormalSum(group, data)


# ---------------------------------------------------------------------------

def test_criterion_01_capacity_closed_form():
    t0 = time.time()
    group = make_group("Z^1")
    ok = True
    for p in (1.5, 2.0, 3.0):
        for R in (4, 8, 16, 32, 64):
            cap, _, _ = capacity(group, p, R)
            exact = 4.0 * R ** (1.0 - p)
            ok &= abs(cap - exact) <= 1e-7 * exact
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    assert _verdict("1 capacity closed form (Z^1, 4 R^{1-p})", ok)


def test_criterion_02_dichotomy_trends():
    t0 = time.time()
    z1 = parabolicity_scan(make_group("Z^1"), 2.0,
                           [4, 8, 16, 32, 64, 128, 256])
    z2p3 = parabolicity_scan(make_group("Z^2"), 3.0, [4, 8, 16, 32, 64, 96])
    z3 = parabolicity_scan(make_group("Z^3"), 2.0, [4, 8, 12, 16, 20])
    caps3 = z3.capacities
    ok = (z1.verdict == "parabolic-trend"
          and z2p3.verdict == "parabolic-trend"
          and z3.verdict == "non-parabolic-trend"
          and abs(caps3[-1] - caps3[-2]) / caps3[-2] < 0.01
          and time.time() - t0 < 300.0)
    assert _verdict("2 recurrence/transience trends (Z^1 p2, Z^2 p3, Z^3 p2)", ok)


def test_criterion_02_z2_p2_capacity_halving():
    """known-hard: 2-capacity on Z^2 decays like 1/log R, so the value at
    R=64 is ~0.62 of the value at R=8, not below half.  Kept faithful."""
    cap8, _, _ = capacity(make_group("Z^2"), 2.0, 8)
    cap64, _, _ = capacity(make_group("Z^2"), 2.0, 64)
    ok = cap64 < 0.5 * cap8
    assert _verdict(
        f"2 Z^2 p=2 halving (cap64/cap8 = {cap64 / cap8:.3f})", ok)


def test_criterion_03_wordlength_bound():
    t0 = time.time()
    rng = np.random.default_rng(11)
    violations = 0
    for spec in ("Z^2", "Z^3", "F_2", "H3"):
        group = make_group(spec)
        ball = build_ball(group, 5)
        for i in range(1000):
            alpha = _random_sum(group, ball, rng, complex_values=bool(i % 2))
            p = float(rng.choice([1.5, 2.0, 3.0]))
            xi = int(rng.integers(1, ball.n_vertices))
            n = int(ball.word_length[xi])
            bound = n ** ((p - 1.0) / p) * norms(alpha, p).dp_norm
            if abs(alpha(ball.elements[xi])) > bound * (1.0 + 1e-12):
                violations += 1
    ok = violations == 0 and time.time() - t0 < 30.0
    assert _verdict("3 pointwise word-length bound, 4x10^3 triples", ok)


def test_criterion_04_pairing_identity():
    rng = np.random.default_rng(12)
    ok = True
    for i in range(1000):
        spec = ("Z^2", "Z^3", "F_2", "H3")[i % 4]
        group = make_group(spec)
        ball = build_ball(group, 4)
        alpha = _random_sum(group, ball, rng, complex_values=bool(i % 2))
        y = ball.elements[int(rng.integers(0, ball.n_vertices))]
        lap = laplacian(alpha)(y)
        val = pairing(FormalSum.delta(group, y), alpha)
        ok &= abs(val + 2.0 * np.conj(lap)) <= 1e-12 * (1.0 + abs(lap))
        if i % 20 == 0:
            dom = [ball.elements[int(j)]
                   for j in rng.integers(0, ball.n_vertices, 5)]
            ok &= (is_harmonic(alpha, dom, 1e-10).harmonic
                   == harmonicity_via_pairing(alpha, dom)[0])
    assert _verdict("4 pairing/Laplacian identity, 10^3 cases", ok)


def test_criterion_05_truncation():
    group = make_group("Z^1")
    alpha = tent_function(group, 20)
    scan = parabolicity_scan(group, 2.0, [4, 8, 16, 32, 64, 128, 256, 512])
    errors = []
    for term in null_sequence(scan):
        diff = alpha - truncate_min(alpha, term.beta)
        errors.append(dirichlet_seminorm_pow(diff, 2.0) ** 0.5)
    ok = bool(errors) and min(errors) <= 1e-3
    assert _verdict("5 truncation against the divergent null sequence", ok)


def test_criterion_06_power_estimate():
    rng = np.random.default_rng(13)
    violations = 0
    balls = [build_ball(make_group(spec), 4) for spec in ("Z^2", "Z^3", "F_2")]
    for i in range(1000):
        alpha = random_nonnegative(balls[i % 3], rng)
        t = float(rng.choice([2.0, 2.5, 3.0]))
        res = lemma61_check(alpha, t)
        if res.margin < -1e-12 * (1.0 + res.rhs):
            violations += 1
    r = rng.uniform(0.0, 10.0, size=100_000)
    s = rng.uniform(0.0, 1.0, size=100_000) * r
    t = rng.uniform(2.0, 5.0, size=100_000)
    scalar_bad = int((mean_value_step(r, s, t) < -1e-9 * (1.0 + r ** t)).sum())
    ok = violations == 0 and scalar_bad == 0
    assert _verdict("6 D(1) power estimate, 10^3 + 10^5 samples", ok)


def test_criterion_07_l2_sobolev_bootstrap():
    group = make_group("Z^3")
    d = 3.0
    rng = np.random.default_rng(14)
    ball = build_ball(group, 8)
    verification = [random_nonnegative(ball, rng) for _ in range(500)]
    profile = isoperimetric_profile(group, 6, "exhaustive")
    test_set = sobolev_test_set(group, profile, 200, rng, ball)
    # the bootstrap applies the L^1 inequality to alpha^{(2d-2)/(d-2)}; the
    # empirical C must cover those powers over the same support region
    t = (2 * d - 2) / (d - 2)
    test_set += [(f"power-{i}", power(a, t)) for i, a in enumerate(verification)]
    rep = sobolev_constant(group, d, test_set)
    done = sobolev_p2(rep, verification)
    ok = (done.cprime == 8.0 * rep.constant
          and done.violation_count == 0
          and done.exponent_identity_residual <= 1e-10)
    assert _verdict("7 p=2 Sobolev bootstrap on Z^3 (C' = 8C)", ok)


def test_criterion_08_green_like_window_norms():
    group = make_group("Z^3")
    stats = {}
    for R in (32, 48):
        ball = build_ball(group, R)
        vals = np.array([1.0 / max(1, max(abs(a) for a in x))
                         for x in ball.elements])
        f = BallFunction(ball, vals, "zero")
        stats[R] = (dirichlet_seminorm_pow(f, 2.0),
                    lp_norm(f, 2.0) ** 2,
                    lp_norm(f, 6.0))
    d32, l32, s32 = stats[32]
    d48, l48, s48 = stats[48]
    ok = (d48 > d32 and (d48 - d32) / d32 < 0.02      # energy Cauchy
          and (l48 - l32) / l32 >= 0.25               # L^2 keeps growing
          and abs(s48 - s32) / s32 < 0.02)            # L^6 stabilizes
    assert _verdict("8 finite-energy, L^6-but-not-L^2 witness on Z^3", ok)


def test_criterion_09_harmonic_trends():
    f2 = royden_split(make_group("F_2"), "end-separating", [6, 8, 10])
    e = {entry.radius: entry.energy for entry in f2.entries}
    coord = royden_split(make_group("Z^3"), "coordinate", [8, 12, 16])
    ec = [entry.energy for entry in coord.entries]
    ok = (abs(e[10] - e[8]) / e[8] < 0.05 and e[10] > 0.1
          and f2.verdict == "harmonic-part-persistent"
          and ec[-1] >= 1.5 * ec[0]
          and coord.verdict == "energy-divergent")
    assert _verdict("9 boundary-data trends (F_2 persistent, Z^3 divergent)", ok)


def test_criterion_09_z3_green_like_monotone():
    """known-hard: the extension energy of the 1/|x|_inf data on Z^3
    oscillates with the parity of R at these window sizes (E(5) > E(4)),
    so strict monotone decrease over R = 4..16 does not hold.  Kept
    faithful."""
    rep = royden_split(make_group("Z^3"), "green-like", list(range(4, 17)))
    energies = [entry.energy for entry in rep.entries]
    ok = all(b < a for a, b in zip(energies, energies[1:]))
    assert _verdict("9 Z^3 green-like energy monotone over R=4..16", ok)


def test_criterion_10_isoperimetry():
    t0 = time.time()
    profile = isoperimetric_profile(make_group("Z^2"), 10, "exhaustive")
    got = {r.n: r.boundary_size for r in profile.records}

    # independent brute force: grow-and-dedupe over encoded cells
    def enc(x, y):
        return (x + 32) * 64 + (y + 32)

    def nbrs(c):
        return (c + 64, c - 64, c + 1, c - 1)

    def bsize(A):
        b = 0
        for c in A:
            if any(n not in A for n in nbrs(c)):
                b += 1
        return b

    want = {1: 1}
    level = {frozenset([enc(0, 0)])}
    for n in range(2, 11):
        nxt = set()
        for A in level:
            for c in A:
                for d in nbrs(c):
                    if d not in A:
                        nxt.add(A | {d})
        level = nxt
        want[n] = min(bsize(A) for A in level)

    ok = got == want and time.time() - t0 < 120.0
    assert _verdict("10 exhaustive Z^2 profile vs independent enumerator", ok)


def test_criterion_11_verify_determinism():
    def run(extra):
        return subprocess.run(
            [sys.executable, "-m", "caylex.cli", "verify", "--suite", "all",
             "--seed", "1", *extra],
            capture_output=True, check=False)

    a, b = run([]), run([])
    c = run(["--workers", "4"])
    ok = (a.returncode == 0 and a.stdout == b.stdout == c.stdout
          and b"FAIL" not in a.stdout)
    assert _verdict("11 verify --suite all determinism across workers", ok)
