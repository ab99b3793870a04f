import dataclasses
import functools
import itertools
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caylex import cli, geometry
from caylex.cayley import (EXTERIOR, BallSizeError, SubsetView, build_ball,
                           vertex_boundary, vertex_boundary_elements)
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


def ref_exhaustive_profile(group, n_max, visit=None, banned=()):
    """Reference exhaustive profile: the set-based rooted enumeration, with
    the seen and banned sets rebuilt at every node.  ``visit``, if given,
    is called with the current index set at every node.  The elements of
    ``banned``, all in B_{n_max - 1}, start out banned, so no visited set
    holds one."""
    univ_ball = build_ball(group, max(n_max - 1, 0))
    order = univ_ball.elements
    initial = {univ_ball.index[x] for x in banned}
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

    extend([0], initial)
    return [IsoperimetricRecord(n, best[n][0], best[n][1], "exhaustive", True)
            for n in sorted(best)]


def below_e(group, n_max):
    """The elements of B_{n_max - 1} whose tuples compare below e: the
    initial banned set that roots each set at its lexicographic minimum."""
    e = group.identity()
    return {x for x in build_ball(group, max(n_max - 1, 0)).elements if x < e}


# groups whose lexicographic order on tuples is left-invariant, checked
# element-wise in test_lexicographic_order_is_left_invariant
ROOTED = ("Z^1", "Z^2", "Z^3", "H3")


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


def ref_cube_family_profile(group, n_max):
    """Reference cube family: each cube [0, m)^d as its own set, its
    boundary by vertex_boundary_elements."""
    records, m = [], 1
    while m ** group.d <= n_max:
        A = frozenset(itertools.product(range(m), repeat=group.d))
        records.append(IsoperimetricRecord(
            len(A), len(vertex_boundary_elements(group, A)), A,
            "cube-family", False))
        m += 1
    return records


@pytest.mark.parametrize("strategy,n_max,spec", [
    *[(strategy, n_max, spec)
      for strategy, n_max in [("greedy", 150), ("ball-family", 400)]
      for spec in ["Z^1", "Z^2", "Z^3", "H3", "F_2"]],
    *[("cube-family", 400, spec) for spec in ["Z^1", "Z^2", "Z^3"]],
])
def test_prefix_witnesses_behave_as_frozensets(strategy, n_max, spec):
    """Greedy, ball-family and cube-family witnesses are views of one
    shared order, and answer ==, hash, set(), len and `in` as the
    frozensets of the references do; cmd_iso lists the same sorted names
    for them."""
    group = make_group(spec)
    ref = {"greedy": ref_greedy_profile,
           "ball-family": ref_ball_family_profile,
           "cube-family": ref_cube_family_profile}[strategy](group, n_max)
    records = isoperimetric_profile(group, n_max, strategy).records
    assert len(records) == len(ref)
    assert len({id(r.witness.order) for r in records}) == 1
    last = ref[-1].witness
    probes = last | {group.multiply(x, g) for x in last
                     for g in group.generators}
    for got, want in zip(records, ref):
        w, fs = got.witness, want.witness
        assert isinstance(w, geometry.PrefixSet) and type(fs) is frozenset
        assert w == fs and fs == w and not w != fs
        assert hash(w) == hash(fs)
        assert set(w) == set(fs) and len(w) == len(fs) == got.n
        assert [x in w for x in probes] == [x in fs for x in probes]
    fmt = group.format_element
    assert cli._sorted_witness_names(group, records) == \
        [sorted(map(fmt, r.witness)) for r in ref]


@pytest.mark.parametrize("group,strategy,n_max", [
    (Z1, "ball-family", 60), (Z2, "ball-family", 300),
    (make_group("H3"), "ball-family", 400),
    (make_group("F_2"), "ball-family", 500), (Cyclic5(), "ball-family", 100),
    (Z1, "cube-family", 40), (Z2, "cube-family", 300),
    (make_group("Z^3"), "cube-family", 400),
], ids=lambda v: getattr(v, "name", v))
def test_nested_family_boundaries_are_those_of_the_element_sets(
        group, strategy, n_max):
    """Each ball- and cube-family record, its |dA| read off one table of
    the largest set, equals the record whose |dA| vertex_boundary_elements
    finds on the record's element set alone."""
    records = isoperimetric_profile(group, n_max, strategy).records
    ref = [IsoperimetricRecord(
        len(frozenset(r.witness)),
        len(vertex_boundary_elements(group, set(r.witness))),
        frozenset(r.witness), strategy, False) for r in records]
    assert records == ref
    assert [r.n for r in records] == sorted({r.n for r in records})
    assert records[-1].n <= n_max


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy", "ball-family",
                                      "cube-family"])
@pytest.mark.parametrize("n_max", [0, -3])
def test_profiles_reject_n_max_below_one(strategy, n_max):
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        isoperimetric_profile(Z2, n_max, strategy)


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
    (make_group("H3"), 7, 60),
    (Cyclic5(), 5, 5), (Cyclic5(), 7, 7),
    (Cyclic4Doubled(), 4, 4), (Cyclic4Doubled(), 6, 6),
], ids=lambda v: getattr(v, "name", v))
def test_profiles_match_reference_records(group, n_exhaustive, n_greedy):
    """Whole records (n, |dA|, witness, exact) equal those of the set-based
    references, including on a finite group and on repeated neighbor slots.
    On Z^d and H3 the exhaustive reference is rooted at the lexicographic
    minimum; on F_2 and the finite groups it bans nothing."""
    banned = below_e(group, n_exhaustive) if group.name in ROOTED else ()
    got = isoperimetric_profile(group, n_exhaustive, "exhaustive")
    assert got.truncated_at is None
    assert got.records == ref_exhaustive_profile(group, n_exhaustive,
                                                 banned=banned)
    got = isoperimetric_profile(group, n_greedy, "greedy")
    assert got.truncated_at is None
    assert got.records == ref_greedy_profile(group, n_greedy)


def test_rooted_exhaustive_witnesses_have_least_element_e():
    """On Z^d and H3 every exhaustive witness holds e as its lexicographic
    minimum; the unrooted reference finds the same minima."""
    for spec, n_max in [("Z^2", 8), ("Z^3", 5), ("H3", 6)]:
        group = make_group(spec)
        records = isoperimetric_profile(group, n_max, "exhaustive").records
        assert all(min(r.witness) == group.identity() for r in records)
        assert [r.boundary_size for r in records] == \
            [r.boundary_size for r in ref_exhaustive_profile(group, n_max)]


# exhaustive minima of the unrooted enumeration, which F_2 and the finite
# groups still run
PARENT_MINIMA = [
    (make_group("F_2"), 6, [1, 2, 3, 4, 4, 5]),
    (Cyclic5(), 7, [1, 2, 2, 2, 0]),
]


@pytest.mark.parametrize("group,n_max,want", PARENT_MINIMA,
                         ids=[g.name for g, _, _ in PARENT_MINIMA])
def test_unrooted_exhaustive_minima_pinned(group, n_max, want):
    assert not group.lex_left_invariant
    profile = isoperimetric_profile(group, n_max, "exhaustive")
    assert [r.boundary_size for r in profile.records] == want


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


def test_rooted_reference_visits_each_z2_polyomino_once():
    """Banning the vertices below e leaves one translate of each fixed
    polyomino: the one whose lexicographic minimum is e (OEIS A001168)."""
    a001168 = [1, 2, 6, 19, 63, 216, 760, 2725]
    visits: Dict[int, List[FrozenSet[int]]] = {}
    ref_exhaustive_profile(Z2, 8, lambda A: visits.setdefault(
        len(A), []).append(frozenset(A)), banned=below_e(Z2, 8))
    for n, polyominoes in enumerate(a001168, start=1):
        assert len(visits[n]) == polyominoes
        assert len(set(visits[n])) == polyominoes


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
        geometry.sobolev_test_set(Z2, profile, 5, np.random.default_rng(0),
                                  build_ball(Z2, 8))


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
            d1, cut2 = indicator_identities(group, A)
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
    rep = sobolev_constant(Z2, 2.0, geometry.sobolev_test_set(
        Z2, profile, 50, np.random.default_rng(0), build_ball(Z2, 8)))
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
    """The caller's B_8 serves the tents and the random functions, and no
    ball is built; each tent equals tent_function, in the same element
    order."""
    group = make_group(spec)
    profile = isoperimetric_profile(group, 3)
    ball = build_ball(group, 8)
    built = []

    def counted(group, radius, *args, **kwargs):
        built.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(geometry, "build_ball", counted)
    test_set = dict(geometry.sobolev_test_set(group, profile, 3,
                                              np.random.default_rng(0), ball))
    assert built == []
    monkeypatch.undo()
    for r in (2, 4, 8):
        tent = test_set[f"tent-R{r}"]
        assert tent == tent_function(group, r)
        assert list(tent.data) == list(tent_function(group, r).data)


def test_sobolev_p2_constant_and_identities():
    group = make_group("Z^3")
    profile = isoperimetric_profile(group, 6, "exhaustive")
    rep = sobolev_constant(group, 3.0, geometry.sobolev_test_set(
        group, profile, 100, np.random.default_rng(0), build_ball(group, 8)))
    rng = np.random.default_rng(1)
    ball = build_ball(group, 5)
    verification = [random_nonnegative(ball, rng) for _ in range(50)]
    done = sobolev_p2(rep, verification)
    assert done.cprime == pytest.approx(8.0 * rep.constant, rel=1e-15)
    assert done.exponent_identity_residual <= 1e-10
    z2_profile = isoperimetric_profile(Z2, 6, "exhaustive")
    with pytest.raises(ValueError, match="requires d > 2"):
        sobolev_p2(sobolev_constant(Z2, 2.0, geometry.sobolev_test_set(
            Z2, z2_profile, 5, np.random.default_rng(0), build_ball(Z2, 8))),
            [])


def test_equivalence_probe():
    probe = is_equivalence_probe(Z2, 2.0, n_max=8, n_random=50)
    assert probe.isd.constant > 0
    assert probe.sobolev.constant > 0
    nS = len(Z2.generators)
    assert 2.0 - 1e-12 <= probe.bridge_min_factor
    assert probe.bridge_max_factor <= 2.0 * nS + 1e-12


def test_guards_of_profiles_and_sobolev_constants(monkeypatch):
    """Cube families off Z^d, d <= 1 and an empty profile are refused; a
    broken indicator identity raises."""
    with pytest.raises(ValueError, match=r"^cube-family profiles are defined "
                                         r"on Z\^d$"):
        isoperimetric_profile(make_group("F_2"), 5, "cube-family")
    profile = isoperimetric_profile(Z2, 3)
    with pytest.raises(ValueError, match=r"^check_ISd requires d > 1$"):
        check_ISd(profile, 1.0)
    with pytest.raises(ValueError, match=r"^empty profile$"):
        check_ISd(geometry.IsoperimetricProfile("Z^2", "exhaustive", []), 2.0)
    with pytest.raises(ValueError, match=r"^sobolev_constant requires d > 1$"):
        sobolev_constant(Z2, 1.0, [])
    monkeypatch.setattr(geometry, "indicator_identities", lambda g, A: (1.0, 2.0))
    with pytest.raises(AssertionError,
                       match=r"^indicator norm identities violated$"):
        sobolev_constant(Z2, 2.0, [("indicator-n1", FormalSum.delta(Z2))])


def test_sobolev_skips_zero_functions_and_counts_violations():
    """A zero function is no sample of either Sobolev step; a constant far
    too small makes each p = 2 check a violation."""
    Z3 = make_group("Z^3")
    zero, delta = FormalSum(Z3), FormalSum.delta(Z3)
    rep = sobolev_constant(Z3, 3.0, [("zero", zero), ("delta", delta)])
    assert rep.samples == 1 and rep.maximizer_kind == "delta"
    assert sobolev_p2(rep, [zero]).worst_margin is None
    small = dataclasses.replace(rep, constant=1e-9)
    done = sobolev_p2(small, [zero, delta, 2.0 * delta])
    assert done.violation_count == 2 and done.worst_margin < 0.0


def test_prefix_set_operators_and_repr():
    order = [(0, 0), (1, 0), (0, 1)]
    A = geometry.PrefixSet(order, {x: i for i, x in enumerate(order)}, 2)
    assert (A | {(5, 5)}) == frozenset([(0, 0), (1, 0), (5, 5)])
    assert isinstance(A & {(1, 0)}, frozenset)
    assert repr(A) == "PrefixSet([(0, 0), (1, 0)])"


@functools.cache
def _profile(spec, n_max, strategy):
    return isoperimetric_profile(make_group(spec), n_max, strategy)


def _growth_terms(group, n_max):
    """(|B_r|, sum_{j<=r} j N_j) for r = 1..R, N_j the size of sphere j and
    R the first power of 2 with |B_R| > 8 n_max: from the closed form
    |B_r| where the family has one, else from a built ball."""
    R = 1
    while True:
        sizes = np.array([group.ball_size(r) for r in range(R + 1)]
                         if group.ball_size(0) is not None else
                         np.cumsum(build_ball(group, R).sphere_sizes),
                         dtype=np.int64)
        if sizes[-1] > 8 * n_max:
            break
        R *= 2
    N = np.diff(sizes, prepend=0)
    return sizes[1:], np.cumsum(np.arange(R + 1) * N)[1:]


# Every record of every strategy against the growth lower bound of ROADMAP
# section 3: |dA| >= |A| (|B_r| - |A|) / sum_{j<=r} j N_j for every r >= 1.
# The ratio |dA| / bound is 1 at n = 1 and at least 1.2 past it here.
ISO_BOUND_CASES = (
    [("exhaustive", s, n) for s, n in [("Z^1", 10), ("Z^2", 10), ("Z^3", 8),
                                       ("H3", 9), ("F_2", 8), ("F_3", 7)]]
    + [("greedy", s, 1000) for s in ("Z^1", "Z^2", "Z^3", "H3")]
    + [("greedy", s, 500) for s in ("F_2", "F_3")]
    + [("ball-family", s, 2000) for s in ("Z^1", "Z^2", "Z^3", "H3", "F_2",
                                          "F_3")]
    + [("cube-family", "Z^1", 50), ("cube-family", "Z^2", 2000),
       ("cube-family", "Z^3", 2000)])


@pytest.mark.parametrize("strategy,spec,n_max", ISO_BOUND_CASES)
def test_every_record_is_at_least_the_growth_lower_bound(strategy, spec, n_max):
    records = _profile(spec, n_max, strategy).records
    sizes, moments = _growth_terms(make_group(spec), records[-1].n)
    for rec in records:
        # |dA| sum_{j<=r} j N_j >= n (|B_r| - n), in integers
        assert np.all(rec.boundary_size * moments >= rec.n * (sizes - rec.n)), \
            rec.n


@pytest.mark.parametrize("k,n_max", [(2, 8), (3, 7)])
def test_free_group_minima_are_the_tree_formula(k, n_max):
    """On F_k, a tree of degree 2k, min |dA| = n - floor((n - 2)/(2k - 1))
    for n >= 2."""
    records = _profile(f"F_{k}", n_max, "exhaustive").records
    assert [(r.n, r.boundary_size) for r in records[1:]] == \
        [(n, n - (n - 2) // (2 * k - 1)) for n in range(2, n_max + 1)]
