import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caylex.funcspace import FormalSum, dirichlet_seminorm_pow, lp_norm
from caylex.geometry import (check_ISd, indicator_identities,
                             is_equivalence_probe, isoperimetric_profile,
                             lemma61_check, mean_value_step,
                             random_nonnegative, sobolev_constant, sobolev_p2,
                             tent_function)
from caylex.groups import make_group
from test_cayley import Cyclic5, ref_vertex_boundary

Z1 = make_group("Z^1")
Z2 = make_group("Z^2")


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
