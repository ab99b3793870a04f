from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caylex import geometry
from caylex.cayley import (EXTERIOR, BallSizeError, SubsetView, build_ball,
                           vertex_boundary)
from caylex.funcspace import (BallFunction, FormalSum, dirichlet_seminorm_pow,
                              lp_norm)
from caylex.geometry import (GREEDY_N_MAX, IsoperimetricRecord, check_ISd,
                             indicator_identities, is_equivalence_probe,
                             isoperimetric_profile, lemma61_check,
                             mean_value_step, random_ball_function,
                             random_formal_sum, random_nonnegative,
                             sobolev_constant, sobolev_p2, tent_function)
from caylex.groups import Element, GroupModel, make_group
from test_cayley import Cyclic5, ref_vertex_boundary

Z1 = make_group("Z^1")
Z2 = make_group("Z^2")


class Cyclic4Doubled(GroupModel):
    """Z/4 with S = {+1, -1, +2, +2}: both +2 slots of a vertex reach the
    same neighbor, so its neighbor row repeats an index."""

    name = "Z/4"
    generators = ((1,), (3,), (2,), (2,))
    inverse_gen_index = (1, 0, 3, 2)

    def identity(self):
        return (0,)

    def multiply(self, x, y):
        return ((x[0] + y[0]) % 4,)

    def inverse(self, x):
        return ((-x[0]) % 4,)


def ref_exhaustive_profile(group, n_max, visit=None):
    """Reference exhaustive profile: the set-based rooted enumeration, with
    the seen and banned sets rebuilt at every node.  ``visit``, if given,
    is called with the current index set at every node."""
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
            if visit is not None:
                visit(current)
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


def ref_greedy_profile(group, n_max):
    """Reference greedy profile: rescan every count for the frontier
    maximum of (count, element) at each step."""
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


def ref_ball_family_profile(group, n_max):
    """Reference ball family: B_r built from scratch for r = 0, 1, ...
    until it holds more than n_max vertices."""
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


@pytest.mark.parametrize("group,n_max", [
    (Z1, 1), (Z1, 300), (Z2, 4), (Z2, 500), (make_group("F_2"), 300),
    (make_group("F_2"), 1000), (make_group("Z^3"), 1000),
    (make_group("Z^3"), 3000), (make_group("H3"), 50), (make_group("H3"), 800),
    (make_group("H3"), 3000),
], ids=lambda v: getattr(v, "name", v))
def test_ball_family_matches_reference_records(group, n_max, monkeypatch):
    """Whole records equal those of balls built one radius at a time.  On
    F_2, Z^3 and H3 a doubled radius exceeds the vertex cap; the build then
    bisects and never tries a radius at or above one that exceeded."""
    tried = []

    def build(group, radius, max_vertices):
        try:
            ball = build_ball(group, radius, max_vertices=max_vertices)
        except BallSizeError:
            tried.append((radius, False))
            raise
        tried.append((radius, True))
        return ball

    monkeypatch.setattr(geometry, "build_ball", build)
    got = isoperimetric_profile(group, n_max, "ball-family")
    assert got.records == ref_ball_family_profile(group, n_max)
    assert tried[-1][1]
    for k, (radius, _) in enumerate(tried):
        assert all(radius < r for r, ok in tried[:k] if not ok)
        assert radius not in [r for r, _ in tried[:k]]


def test_ball_family_raises_when_the_next_ball_exceeds_the_cap():
    """F_10: B_2 has 401 vertices, B_3 7,621 > 4 * 401, as in the old loop."""
    group = make_group("F_10")
    with pytest.raises(BallSizeError):
        ref_ball_family_profile(group, 401)
    with pytest.raises(BallSizeError):
        isoperimetric_profile(group, 401, "ball-family")


def test_ball_family_on_a_finite_cycle():
    profile = isoperimetric_profile(Cyclic5(), 100, "ball-family")
    assert [(r.n, r.boundary_size) for r in profile.records] == \
        [(1, 1), (3, 2), (5, 0)]


@pytest.mark.parametrize("group,n_exhaustive,n_greedy", [
    (Z1, 8, 60), (Z2, 9, 60), (make_group("Z^3"), 6, 60),
    (make_group("F_2"), 6, 60), (make_group("H3"), 6, 60),
    (Cyclic5(), 5, 5), (Cyclic5(), 7, 7),
    (Cyclic4Doubled(), 4, 4), (Cyclic4Doubled(), 6, 6),
], ids=lambda v: getattr(v, "name", v))
def test_profiles_match_reference_records(group, n_exhaustive, n_greedy):
    """Whole records (n, |dA|, witness, exact) equal those of the set-based
    references, including on a finite group and on repeated neighbor slots."""
    for strategy, n_max, ref in [("exhaustive", n_exhaustive, ref_exhaustive_profile),
                                 ("greedy", n_greedy, ref_greedy_profile)]:
        got = isoperimetric_profile(group, n_max, strategy)
        assert got.truncated_at is None
        assert got.records == ref(group, n_max)


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
def test_profile_with_repeated_neighbor_slots(strategy):
    group = Cyclic4Doubled()
    profile = isoperimetric_profile(group, 6, strategy)
    assert [r.boundary_size for r in profile.records] == [1, 2, 3, 0]
    for rec in profile.records:
        assert len(rec.witness) == rec.n
        assert rec.boundary_size == len(ref_vertex_boundary(group, rec.witness))


def test_reference_enumeration_visits_each_z2_set_once():
    """On Z^2 the connected sets of size n containing e are the n
    translates of each fixed polyomino (OEIS A001168) that cover e; the
    reference enumeration visits each of them exactly once."""
    a001168 = [1, 2, 6, 19, 63, 216, 760, 2725]
    visits: Dict[int, List[FrozenSet[int]]] = {}
    ref_exhaustive_profile(Z2, 8, lambda A: visits.setdefault(
        len(A), []).append(frozenset(A)))
    for n, polyominoes in enumerate(a001168, start=1):
        assert len(visits[n]) == n * polyominoes
        assert len(set(visits[n])) == n * polyominoes


def test_profile_z1():
    profile = isoperimetric_profile(Z1, 6, "exhaustive")
    by_n = {r.n: r for r in profile.records}
    assert by_n[1].boundary_size == 1
    assert by_n[5].boundary_size == 2
    # the witness at n=5 is an interval
    xs = sorted(x[0] for x in by_n[5].witness)
    assert xs == list(range(xs[0], xs[0] + 5))


def test_profile_z2_small_oracle():
    # minimal vertex boundaries of connected subsets of Z^2 containing e
    profile = isoperimetric_profile(Z2, 6, "exhaustive")
    assert [r.boundary_size for r in profile.records] == [1, 2, 3, 4, 4, 5]
    for r in profile.records:
        assert len(r.witness) == r.n and r.exact


def test_square_family_boundary():
    profile = isoperimetric_profile(Z2, 16, "cube-family")
    for rec in profile.records:
        m = round(rec.n ** 0.5)
        assert rec.boundary_size == (4 * m - 4 if m > 1 else 1)


def test_budget_truncation(monkeypatch):
    import caylex.geometry as geometry
    monkeypatch.setattr(geometry, "EXHAUSTIVE_N_MAX", 5)
    profile = isoperimetric_profile(Z2, 20, "exhaustive")
    assert profile.truncated_at == 5
    assert profile.records[-1].n == 5
    with pytest.raises(ValueError):
        isoperimetric_profile(Z2, 5, "nope")


def test_greedy_budget_truncation(monkeypatch):
    import caylex.geometry as geometry
    profile = isoperimetric_profile(Z2, GREEDY_N_MAX + 1, "greedy")
    assert profile.truncated_at == GREEDY_N_MAX
    assert len(profile.records) == GREEDY_N_MAX
    monkeypatch.setattr(geometry, "GREEDY_N_MAX", 7)
    profile = isoperimetric_profile(Z2, 20, "greedy")
    assert profile.truncated_at == 7
    assert [r.n for r in profile.records] == list(range(1, 8))
    assert isoperimetric_profile(Z2, 7, "greedy").truncated_at is None


def test_greedy_upper_bounds_exhaustive():
    exact = {r.n: r.boundary_size
             for r in isoperimetric_profile(Z2, 8, "exhaustive").records}
    greedy = isoperimetric_profile(Z2, 8, "greedy")
    for rec in greedy.records:
        assert not rec.exact
        assert rec.boundary_size >= exact[rec.n]


@pytest.mark.parametrize("spec,n_exhaustive", [
    ("Z^1", 8), ("Z^2", 9), ("Z^3", 6), ("F_2", 6), ("H3", 6)])
def test_profile_boundaries_match_reference(spec, n_exhaustive):
    group = make_group(spec)
    for strategy, n_max in [("exhaustive", n_exhaustive), ("greedy", 40)]:
        profile = isoperimetric_profile(group, n_max, strategy)
        assert [r.n for r in profile.records] == list(range(1, n_max + 1))
        for rec in profile.records:
            assert len(rec.witness) == rec.n
            assert rec.boundary_size == len(ref_vertex_boundary(group,
                                                                rec.witness))


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
def test_profile_on_a_finite_cycle(strategy):
    group = Cyclic5()
    profile = isoperimetric_profile(group, 5, strategy)
    assert [r.boundary_size for r in profile.records] == [1, 2, 2, 2, 0]
    for rec in profile.records:
        assert rec.boundary_size == len(ref_vertex_boundary(group, rec.witness))


@pytest.mark.parametrize("spec", ["Z^3", "F_2", "H3"])
def test_exhaustive_minima_brute_force(spec):
    """Independent brute force: grow every connected set containing e one
    neighbor at a time, dedupe, and take the least reference boundary."""
    group = make_group(spec)
    n_max = 6
    got = {r.n: r.boundary_size
           for r in isoperimetric_profile(group, n_max, "exhaustive").records}
    want = {}
    level = {frozenset([group.identity()])}
    for n in range(1, n_max + 1):
        if n > 1:
            level = {A | {y} for A in level for x in A
                     for y in (group.multiply(x, g) for g in group.generators)
                     if y not in A}
        want[n] = min(len(ref_vertex_boundary(group, A)) for A in level)
    assert got == want


def test_sobolev_rejects_profile_of_another_group():
    profile = isoperimetric_profile(make_group("Z^3"), 4)
    with pytest.raises(ValueError, match=r"Z\^3.*Z\^2"):
        sobolev_constant(Z2, 3.0, profile, n_random=5)


def test_isd_bounded_for_matching_dimension():
    profile = isoperimetric_profile(Z2, 400, "cube-family")
    res = check_ISd(profile, 2.0)
    # squares: ratio m/(4m-4) <= 1, tending to 1/4
    assert res.constant == 1.0
    assert res.ratios[-1] == pytest.approx(0.25, rel=0.1)


def test_isd_unbounded_trend_above_dimension():
    profile = isoperimetric_profile(Z1, 500, "ball-family")
    res = check_ISd(profile, 2.0)
    ratios = res.ratios
    assert all(b > a for a, b in zip(ratios[1:], ratios[2:]))
    assert ratios[-1] > 10.0 * ratios[0]


def test_isd_f2_balls_bounded():
    profile = isoperimetric_profile(make_group("F_2"), 1000, "ball-family")
    res = check_ISd(profile, 4.0)
    # nonamenable: |dA| >= c|A| keeps every ratio n^{3/4}/|dA| small
    assert res.constant <= 1.0


def test_indicator_identities():
    rng = np.random.default_rng(0)
    for spec in ["Z^2", "Z^3", "F_2"]:
        group = make_group(spec)
        for _ in range(20):
            # random connected subset grown from e
            A = {group.identity()}
            while len(A) < int(rng.integers(2, 12)):
                x = list(A)[int(rng.integers(0, len(A)))]
                g = group.generators[int(rng.integers(0, len(group.generators)))]
                A.add(group.multiply(x, g))
            lq, size_pow, d1, cut2 = indicator_identities(group, A, 3.0)
            assert lq == pytest.approx(size_pow)
            assert d1 == pytest.approx(cut2)


def test_sobolev_delta_ratio():
    for spec in ["Z^2", "Z^3", "H3"]:
        group = make_group(spec)
        d = FormalSum.delta(group)
        nS = len(group.generators)
        ratio = lp_norm(d, 1.5) / dirichlet_seminorm_pow(d, 1.0)
        assert ratio == pytest.approx(1.0 / (2 * nS))


def test_sobolev_square_ratio():
    n = 6
    A = {(i, j) for i in range(n) for j in range(n)}
    ind = FormalSum.indicator(Z2, A)
    ratio = lp_norm(ind, 2.0) / dirichlet_seminorm_pow(ind, 1.0)
    assert ratio == pytest.approx(1.0 / 8.0)


def test_sobolev_constant_report():
    profile = isoperimetric_profile(Z2, 6, "exhaustive")
    rep = sobolev_constant(Z2, 2.0, profile, n_random=50, seed=0)
    assert rep.constant > 0
    assert rep.maximizer_kind
    assert rep.samples >= 50


def test_lemma61_delta():
    res = lemma61_check(FormalSum.delta(Z1), 2.0)
    assert res.lhs == pytest.approx(4.0)    # ||delta||_D(1) = 2|S|
    assert res.rhs == pytest.approx(8.0)    # 2t * 1 * sum_g |diff| = 4|S|
    assert res.margin == pytest.approx(4.0)


def test_lemma61_zero_and_guards():
    assert lemma61_check(FormalSum(Z1), 2.0).margin == 0.0
    with pytest.raises(ValueError):
        lemma61_check(FormalSum.delta(Z1), 1.5)
    with pytest.raises(ValueError):
        lemma61_check(FormalSum.delta(Z1), float("nan"))
    with pytest.raises(ValueError):
        lemma61_check(FormalSum(Z1, {(0,): -1.0}), 2.0)


def test_lemma61_rejects_a_ball_convention_function():
    ball = build_ball(Z2, 2)
    with pytest.raises(ValueError, match="'zero'"):
        lemma61_check(BallFunction(ball, np.ones(ball.n_vertices), "ball"), 2.0)


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "F_2", "H3"])
def test_random_ball_function_matches_random_formal_sum(spec):
    """From equal rng states both samplers draw the same function and leave
    the rng in the same state; the FormalSum keeps draw order."""
    ball = build_ball(make_group(spec), 3)
    for kind, max_support in [("real", 25), ("complex", 25),
                              ("nonnegative", 40), ("real", 10 ** 4)]:
        for seed in range(5):
            rng_dense = np.random.default_rng(seed)
            rng_sparse = np.random.default_rng(seed)
            f = random_ball_function(ball, rng_dense, max_support, kind, 2.0)
            alpha = random_formal_sum(ball, rng_sparse, max_support, kind, 2.0)
            assert f.convention == "zero"
            assert f.to_formal_sum().data == alpha.data
            assert rng_dense.bit_generator.state == rng_sparse.bit_generator.state
            ids = np.random.default_rng(seed)
            ids.integers(1, max_support + 1)
            ids = ids.choice(ball.n_vertices, size=len(alpha.data), replace=False)
            assert list(alpha.data) == [ball.elements[i] for i in ids]


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "F_2", "H3"])
def test_lemma61_same_on_ball_function_and_formal_sum(spec):
    ball = build_ball(make_group(spec), 4)
    rng = np.random.default_rng(7)
    for t in (2.0, 2.5, 3.0):
        f = random_ball_function(ball, rng, kind="nonnegative", high=2.0)
        dense = lemma61_check(f, t)
        sparse = lemma61_check(f.to_formal_sum(), t)
        for a, b in [(dense.lhs, sparse.lhs), (dense.rhs, sparse.rhs)]:
            assert a == pytest.approx(b, rel=1e-12)
        assert dense.margin == pytest.approx(sparse.margin, rel=1e-12, abs=1e-12)


def test_lemma61_block():
    block = FormalSum.indicator(Z1, [(i,) for i in range(-3, 4)])
    res = lemma61_check(block, 2.0)
    assert res.lhs == pytest.approx(4.0)
    assert res.margin >= 0


@given(st.floats(0, 10), st.floats(0, 1), st.floats(2, 5))
@settings(max_examples=300, deadline=None)
def test_mean_value_step(r, frac, t):
    s = frac * r
    assert mean_value_step(r, s, t) >= -1e-9 * (1.0 + r ** t)


def test_tent_function():
    tent = tent_function(Z2, 4)
    assert tent((0, 0)) == 1.0
    assert tent((2, 0)) == pytest.approx(0.5)
    assert tent((4, 0)) == 0.0
    assert tent((2, 2)) == 0.0   # word length 4
    with pytest.raises(ValueError):
        tent_function(Z2, 0)


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "F_2", "H3"])
def test_sobolev_test_set_builds_one_ball(spec, monkeypatch):
    """One B_8 serves the tents and the random functions; each tent equals
    tent_function, in the same element order."""
    group = make_group(spec)
    built = []

    def counted(group, radius, *args, **kwargs):
        built.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(geometry, "build_ball", counted)
    test_set = dict(geometry.sobolev_test_set(group, None, 3,
                                              np.random.default_rng(0)))
    assert built == [8]
    monkeypatch.undo()
    for r in (2, 4, 8):
        tent = test_set[f"tent-R{r}"]
        assert tent == tent_function(group, r)
        assert list(tent.data) == list(tent_function(group, r).data)


def test_sobolev_p2_constant_and_identities():
    group = make_group("Z^3")
    profile = isoperimetric_profile(group, 6, "exhaustive")
    rep = sobolev_constant(group, 3.0, profile, n_random=100, seed=0)
    rng = np.random.default_rng(1)
    verification = [random_nonnegative(group, rng) for _ in range(50)]
    done = sobolev_p2(rep, group, verification)
    assert done.cprime == pytest.approx(8.0 * rep.constant, rel=1e-15)
    assert done.exponent_identity_residual <= 1e-10
    z2_profile = isoperimetric_profile(Z2, 6, "exhaustive")
    with pytest.raises(ValueError, match="requires d > 2"):
        sobolev_p2(sobolev_constant(Z2, 2.0, z2_profile, n_random=5), Z2, [])


def test_equivalence_probe():
    probe = is_equivalence_probe(Z2, 2.0, n_max=8, n_random=50)
    assert probe.isd.constant > 0
    assert probe.sobolev.constant > 0
    nS = len(Z2.generators)
    assert 2.0 - 1e-12 <= probe.bridge_min_factor
    assert probe.bridge_max_factor <= 2.0 * nS + 1e-12
