"""Seeded verification suites for the library's core inequalities and
identities.  Each suite runs a batch of randomized checks and returns a
summary; with a fixed seed the output is bit-reproducible regardless of
how the suites are scheduled.

The sampling suites (norms, lemma41, lemma52, prop53-holder, lemma61)
draw each sample once, as a dense 'zero'-convention BallFunction on the
ball it is drawn from (geometry.random_ball_function): every scalar
operator is exact on that ball for a function supported in it, so no
window is built.  The draws (samples, exponents, points, domains) keep
the rng order of a loop over the samples.  The samples are checked in
stacks: those that share a ball and an exponent are stacked, at most
STACK_ROWS at a time, and each operator is called once per stack and
returns one result per row.  A stack is checked as soon as it is full;
checks draw nothing, so the order of the draws is unchanged.  Failures
are mapped back to their samples and reported in sample order.
FormalSum windows are used by the cocycle suite, lemma52's harmonicity
cross-check and the Sobolev paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import dirichlet, geometry
from .cayley import CayleyBall, build_ball
from .funcspace import (BallFunction, check_cocycle, dirichlet_seminorm_pow,
                        is_harmonic, laplacian, modulus, norms, pairing,
                        power, harmonicity_via_pairing, translate, truncate_min)
from .geometry import random_ball_function, random_formal_sum
from .groups import make_group


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: List[str] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"suite={self.name} {status} checked={self.checked} failures={len(self.failures)}"
        for f in self.failures[:5]:
            out += f"\n  counterexample: {f}"
        return out


_FAMILIES = ("Z^2", "Z^3", "F_2", "H3")

# Rows per stack.  Measured on a 2-CPU VM over the suites' balls (41-485
# vertices): 32 rows take most of the per-call overhead out of the loops
# and leave the suites workload's peak RSS within 0.5 MB of per-sample
# checks; one stack per (ball, exponent) costs 8 MB more.
STACK_ROWS = 32


def _cycle_balls(groups: Sequence[str], n: int,
                 radius: int = 4) -> Iterator[Tuple[int, CayleyBall]]:
    """(i, ball) for i < n, cycling through the radius balls of the given
    group specs."""
    balls = [build_ball(make_group(spec), radius) for spec in groups]
    for i in range(n):
        yield i, balls[i % len(balls)]


def _stacks(draws: Iterable[tuple]) -> Iterator[Tuple[object, List[int], list]]:
    """(key, sample indices, samples) per stack: the (key, sample) draws
    grouped by key, at most STACK_ROWS to a stack, each stack in sample
    order.  A stack is yielded once it is full, and the partial ones after
    the last draw, so lazily drawn samples are held only until their stack
    is checked."""
    pending: Dict = {}
    for i, (key, sample) in enumerate(draws):
        rows, samples = pending.setdefault(key, ([], []))
        rows.append(i)
        samples.append(sample)
        if len(rows) == STACK_ROWS:
            yield (key, *pending.pop(key))
    for key, (rows, samples) in pending.items():
        yield key, rows, samples


def _stack(fs: Sequence[BallFunction]) -> BallFunction:
    """The functions, all on one ball, as the rows of one BallFunction;
    complex if any of them is."""
    return fs[0].copy_with(np.stack([f.values for f in fs]))


def _flagged(rows: List[int], flags) -> List[int]:
    """The rows whose check failed.  A scalar flag, from an operator that
    returned one value for the whole stack, holds for each row."""
    return [i for i, bad in zip(rows, np.broadcast_to(flags, len(rows))) if bad]


def _in_order(found: List[Tuple[tuple, str]]) -> List[str]:
    """Failure messages sorted by their (sample, check) keys."""
    return [msg for _, msg in sorted(found)]


# ---------------------------------------------------------------------------

def suite_norms(seed: int) -> SuiteResult:
    """Norm identity ||a||_{D^p}^p = ||a||_{D(p)}^p + |a(e)|^p and the
    modulus contraction ||(|a|)||_D(p) <= ||a||_D(p)."""
    rng = np.random.default_rng(seed)
    ps = (1.5, 2.0, 3.0)
    draws = ((ball, random_ball_function(ball, rng, kind="complex" if i % 2 else "real"))
             for i, ball in _cycle_balls(_FAMILIES, 200))
    found = []
    for ball, rows, fs in _stacks(draws):
        f = _stack(fs)
        name = ball.group.name
        for k, p in enumerate(ps):
            rep = norms(f, p)
            lhs = rep.dp_norm ** p
            rhs = rep.dp_seminorm ** p + rep.at_identity ** p
            for i in _flagged(rows, np.abs(lhs - rhs) > 1e-12 * (1.0 + np.abs(rhs))):
                found.append(((i, k, 0), f"norm identity: {name} sample {i} p={p}"))
            semi_mod = dirichlet_seminorm_pow(modulus(f), p) ** (1 / p)
            for i in _flagged(rows, semi_mod > rep.dp_seminorm * (1.0 + 1e-12) + 1e-12):
                found.append(((i, k, 1), f"modulus contraction: {name} sample {i} p={p}"))
    return SuiteResult("norms", 2 * len(ps) * 200, _in_order(found))


def suite_cocycle(seed: int) -> SuiteResult:
    """delta(gh) = (delta(g))h + delta(h) for coboundaries, words len <= 4,
    plus translation homomorphism translate(translate(a,g),h) = translate(a,gh)."""
    rng = np.random.default_rng(seed)
    fails = []
    checked = 0
    for i, ball in _cycle_balls(_FAMILIES, 150):
        group = ball.group
        name = group.name
        alpha = random_formal_sum(ball, rng)
        gens = group.generators
        gl = int(rng.integers(0, 3))
        hl = int(rng.integers(1, 4))
        gw = [gens[int(j)] for j in rng.integers(0, len(gens), gl)]
        hw = [gens[int(j)] for j in rng.integers(0, len(gens), hl)]
        res = check_cocycle(alpha, gw, hw)
        checked += 1
        if res > 1e-12:
            fails.append(f"cocycle: {name} sample {i} residual {res:.2e}")
        g = gens[int(rng.integers(0, len(gens)))]
        h = gens[int(rng.integers(0, len(gens)))]
        two_step = translate(translate(alpha, g), h)
        one_step = translate(alpha, group.multiply(g, h))
        checked += 1
        if two_step.data != one_step.data:
            fails.append(f"translation homomorphism: {name} sample {i}")
    return SuiteResult("cocycle", checked, fails)


def suite_lemma31(seed: int) -> SuiteResult:
    """Truncation of the radius-20 tent against rescaled capacity
    minimizers on Z^1 at p = 2: the truncation error must fall below 0.001
    within the scan."""
    group = make_group("Z^1")
    alpha = geometry.tent_function(group, 20)
    scan = dirichlet.parabolicity_scan(group, 2.0,
                                       [4, 8, 16, 32, 64, 128, 256, 512])
    fails = []
    checked = 0
    try:
        terms = dirichlet.null_sequence(scan)
    except dirichlet.NullSequenceError as exc:
        return SuiteResult("lemma31", 1, [f"null sequence unavailable: {exc}"])
    errors = []
    for term in terms:
        diff = alpha - truncate_min(alpha, term.beta)
        errors.append(dirichlet_seminorm_pow(diff, 2.0) ** 0.5)
        checked += 1
        beta_semi = dirichlet_seminorm_pow(term.beta, 2.0) ** 0.5
        if beta_semi > 1.0 / term.n + 1e-12:
            fails.append(f"beta_{term.n} seminorm {beta_semi:.3e} > 1/n")
    checked += 1
    if not errors or min(errors) > 0.001:
        fails.append(f"truncation error floor {min(errors, default=np.inf):.3e} > 0.001")
    tail = [e for e in errors if e <= errors[0] + 1e-12]
    checked += 1
    if len(tail) != len(errors):
        fails.append("truncation errors not dominated by the first term")
    return SuiteResult("lemma31", checked, fails)


def suite_lemma41(seed: int) -> SuiteResult:
    """Word-length bound |a(x)| <= n^{(p-1)/p} ||a||_{D^p}, plus the scalar
    power-mean inequality (a_1+...+a_n)^p <= n^{p-1} (a_1^p+...+a_n^p)."""
    rng = np.random.default_rng(seed)

    def draws():
        for i, ball in _cycle_balls(_FAMILIES, 1000, radius=5):
            f = random_ball_function(ball, rng)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            yield (ball, p), (f, int(rng.integers(1, ball.n_vertices)))

    found = []
    for (ball, p), rows, samples in _stacks(draws()):
        f = _stack([f for f, _ in samples])
        xi = np.array([x for _, x in samples])
        dp = norms(f, p).dp_norm
        wl = ball.word_length[xi]
        at_x = np.abs(f.values[np.arange(len(rows)), xi])
        for i in _flagged(rows, at_x > wl ** ((p - 1.0) / p) * dp * (1.0 + 1e-12)):
            found.append(((i,), f"word-length bound: {ball.group.name} sample {i}"))
    fails = _in_order(found)
    checked = 1000
    for _ in range(200):
        m = int(rng.integers(2, 8))
        a = rng.uniform(0.0, 3.0, size=m)
        p = float(rng.uniform(1.0, 4.0))
        checked += 1
        if a.sum() ** p > m ** (p - 1.0) * (a ** p).sum() * (1.0 + 1e-12):
            fails.append(f"power-mean inequality: m={m} p={p:.3f}")
    return SuiteResult("lemma41", checked, fails)


def suite_lemma52(seed: int, n: int = 1000,
                  groups: Sequence[str] = _FAMILIES) -> SuiteResult:
    """Pairing identity <delta_y, a> = -2 conj(Lap a(y)), and agreement of
    the pairing-based harmonicity test with the direct one.  Reports the
    largest identity residual
    |<delta_y, a> + 2 conj(Lap a(y))| / (1 + |Lap a(y)|)."""
    rng = np.random.default_rng(seed)
    cross_checks = {}

    def draws():
        for i, ball in _cycle_balls(groups, n):
            f = random_ball_function(ball, rng, kind="complex" if i % 2 else "real")
            yield ball, (f, int(rng.integers(0, ball.n_vertices)))
            if i % 10 == 0:
                cross_checks[i] = f, [ball.elements[int(j)]
                                      for j in rng.integers(0, ball.n_vertices, 5)]

    found = []
    max_residual = 0.0
    for ball, rows, samples in _stacks(draws()):
        f = _stack([f for f, _ in samples])
        at = (np.arange(len(rows)), np.array([y for _, y in samples]))
        lap_y = laplacian(f).values[at]
        delta = np.zeros(f.values.shape)
        delta[at] = 1.0
        val = pairing(f.copy_with(delta), f)
        residual = np.abs(val + 2.0 * np.conj(lap_y)) / (1.0 + np.abs(lap_y))
        max_residual = max(max_residual, float(np.max(residual)))
        for i in _flagged(rows, residual > 1e-12):
            found.append(((i, 0), f"pairing identity: {ball.group.name} sample {i}"))
    for i, (f, domain) in cross_checks.items():
        # the FormalSum route: lifted onto the window of its support
        alpha = f.to_formal_sum()
        direct = is_harmonic(alpha, domain, tol=1e-10).harmonic
        via, _ = harmonicity_via_pairing(alpha, domain)
        if direct != via:
            found.append(((i, 1), f"harmonicity disagreement: {alpha.group.name} sample {i}"))
    return SuiteResult("lemma52", n + len(cross_checks), _in_order(found),
                       {"max_identity_residual": max_residual})


def suite_prop53_holder(seed: int, n: int = 300,
                        groups: Sequence[str] = _FAMILIES,
                        ps: Sequence[float] = (1.5, 2.0, 3.0)) -> SuiteResult:
    """|<a, b>| <= ||a||_D(p) ||b||_D(q).  Also reports the largest edge
    leakage |<a, b>_ball - <a, b>| of the pairing restricted to in-ball
    edges."""
    rng = np.random.default_rng(seed)
    draws = ((ball, (random_ball_function(ball, rng, kind="complex" if i % 2 else "real"),
                     random_ball_function(ball, rng, kind="complex" if i % 3 else "real")))
             for i, ball in _cycle_balls(groups, n))
    found = []
    max_leak = 0.0
    for ball, rows, samples in _stacks(draws):
        fa = _stack([fa for fa, _ in samples])
        fb = _stack([fb for _, fb in samples])
        exact = pairing(fa, fb)         # the same for every p
        windowed = pairing(BallFunction(ball, fa.values, "ball"),
                           BallFunction(ball, fb.values, "ball"))
        max_leak = max(max_leak, float(np.max(np.abs(windowed - exact))))
        for k, p in enumerate(ps):
            q = p / (p - 1.0)
            rhs = dirichlet_seminorm_pow(fa, p) ** (1 / p) * \
                dirichlet_seminorm_pow(fb, q) ** (1 / q)
            for i in _flagged(rows, np.abs(exact) > rhs * (1.0 + 1e-10) + 1e-12):
                found.append(((i, k), f"Hoelder: {ball.group.name} sample {i} p={p}"))
    fails = _in_order(found)
    return SuiteResult("prop53-holder", n * len(ps), fails,
                       {"holder_violations": len(fails),
                        "max_window_edge_leakage": max_leak})


def suite_lemma61(seed: int, n: int = 1000, n_scalar: int = 100_000,
                  groups: Sequence[str] = ("Z^2", "Z^3", "F_2"),
                  t: Optional[float] = None) -> SuiteResult:
    """The D(1) power estimate on random non-negative functions, with t
    fixed or drawn from {2, 2.5, 3}, and its scalar mean-value step on
    random (r, s, t).  Reports the violation counts and the smallest
    margin of the power estimate."""
    rng = np.random.default_rng(seed)

    def draws():
        for i, ball in _cycle_balls(groups, n):
            f = random_ball_function(ball, rng, kind="nonnegative", high=2.0)
            ti = float(rng.choice([2.0, 2.5, 3.0])) if t is None else t
            yield (ball, ti), f

    found = []
    min_margin = np.inf
    for (ball, ti), rows, fs in _stacks(draws()):
        res = geometry.lemma61_check(_stack(fs), ti)
        min_margin = min(min_margin, float(np.min(res.margin)))
        for i in _flagged(rows, res.margin < -1e-12 * (1.0 + res.rhs)):
            found.append(((i,), f"power estimate: {ball.group.name} sample {i} t={ti}"))
    fails = _in_order(found)
    violations = len(fails)
    r = rng.uniform(0.0, 10.0, size=n_scalar)
    s = rng.uniform(0.0, 1.0, size=n_scalar) * r
    tv = rng.uniform(2.0, 5.0, size=n_scalar)
    margins = geometry.mean_value_step(r, s, tv)
    bad = int((margins < -1e-9 * (1.0 + r ** tv)).sum())
    if bad:
        fails.append(f"mean-value step: {bad} scalar violations")
    return SuiteResult("lemma61", n + n_scalar, fails,
                       {"violations": violations, "min_margin": float(min_margin),
                        "scalar_violations": bad})


def suite_prop62(seed: int) -> SuiteResult:
    """The p = 2 bootstrap on Z^3: zero violations on random non-negative
    functions, exponent identities."""
    rng = np.random.default_rng(seed)
    group = make_group("Z^3")
    d = 3.0
    profile = geometry.isoperimetric_profile(group, 6, "exhaustive")
    ball = build_ball(group, 8)
    verification = [geometry.random_nonnegative(ball, rng) for _ in range(200)]
    test_set = geometry.sobolev_test_set(group, profile, 100, rng, ball)
    # the bootstrap argument applies the L^1 inequality to alpha^t; include
    # those powers in the empirical test set so C covers them
    t = (2 * d - 2) / (d - 2)
    test_set = test_set + [(f"verify-power-{i}", power(a, t))
                           for i, a in enumerate(verification)]
    rep = geometry.sobolev_constant(group, d, test_set)
    done = geometry.sobolev_p2(rep, verification)
    fails = []
    checked = len(verification) + 1
    if done.violation_count:
        fails.append(f"{done.violation_count} violations of the p=2 inequality "
                     f"(worst margin {done.worst_margin:.3e})")
    if done.exponent_identity_residual > 1e-10:
        fails.append(f"exponent identity residual {done.exponent_identity_residual:.2e}")
    return SuiteResult("prop62", checked, fails)


def suite_maxprinciple(seed: int) -> SuiteResult:
    """Harmonic extensions of random boundary data attain their extrema on
    the outermost sphere."""
    rng = np.random.default_rng(seed)
    fails = []
    checked = 0
    for name, radius in (("Z^2", 5), ("H3", 4), ("F_2", 4)):
        ball = build_ball(make_group(name), radius)
        sphere = ball.sphere_indices(radius)
        for i in range(10):
            data = rng.normal(size=len(sphere))
            constraints = {int(j): float(v) for j, v in zip(sphere, data)}
            rep = dirichlet.harmonic_extension(
                dirichlet.EnergyProblem(ball, 2.0, constraints, "ball"))
            res = dirichlet.maximum_principle_check(ball, rep.minimizer,
                                                    tol=1e-7)
            checked += 1
            if not (res.applicable and res.passed):
                fails.append(f"max principle: {name} sample {i} "
                             f"violation {res.violation:.3e}")
    # guard case: a non-harmonic function must be reported inapplicable
    ball = build_ball(make_group("Z^2"), 3)
    vals = np.zeros(ball.n_vertices)
    vals[0] = 1.0
    res = dirichlet.maximum_principle_check(ball, BallFunction(ball, vals, "ball"))
    checked += 1
    if res.applicable:
        fails.append("delta_e wrongly judged harmonic")
    return SuiteResult("maxprinciple", checked, fails)


_SUITES: Dict[str, Callable[[int], SuiteResult]] = {
    "norms": suite_norms,
    "cocycle": suite_cocycle,
    "lemma31": suite_lemma31,
    "lemma41": suite_lemma41,
    "lemma52": suite_lemma52,
    "prop53-holder": suite_prop53_holder,
    "lemma61": suite_lemma61,
    "prop62": suite_prop62,
    "maxprinciple": suite_maxprinciple,
}
SUITE_NAMES = list(_SUITES)


def _suite_seed(base_seed: int, name: str) -> int:
    # stable per-suite derivation, independent of execution order
    return int(np.random.SeedSequence([base_seed, SUITE_NAMES.index(name)])
               .generate_state(1)[0])


def run_suite(name: str, seed: int) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](_suite_seed(seed, name))


def run_suites(names: Sequence[str], seed: int,
               workers: int = 1) -> List[SuiteResult]:
    """Run suites, optionally on a process pool; results come back in the
    given order with per-suite seeds, so output is identical for any
    worker count."""
    names = list(names)
    workers = min(workers, len(names), os.cpu_count() or 1)
    if workers <= 1:
        return [run_suite(name, seed) for name in names]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_suite, names, [seed] * len(names)))
