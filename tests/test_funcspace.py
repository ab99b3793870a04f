import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caylex import funcspace
from caylex.cayley import build_ball
from caylex.funcspace import (BallFunction, FormalSum, check_cocycle,
                              cocycle_extend, cocycle_view, conjugate_index,
                              convolve_diff, dirichlet_seminorm_pow,
                              harmonicity_via_pairing, is_harmonic, laplacian,
                              lp_norm, modulus, norms, pairing, power,
                              translate, truncate_min)
from caylex.geometry import lemma61_check, random_ball_function, random_formal_sum
from caylex.groups import make_group
from conftest import word_element

Z1 = make_group("Z^1")
Z2 = make_group("Z^2")
F2 = make_group("F_2")


def test_translate_right():
    alpha = FormalSum(Z1, {(0,): 1.0, (1,): 2.0})
    shifted = translate(alpha, (3,))
    # result(x) = alpha(x g^-1)
    assert shifted((3,)) == 1.0 and shifted((4,)) == 2.0


def test_translate_noncommutative_order():
    alpha = FormalSum.delta(F2)
    g, h = (1,), (2,)   # a, b
    assert translate(translate(alpha, g), h) == translate(alpha, F2.multiply(g, h))


def test_groups_compare_by_value():
    """Two make_group calls of one spec give equal groups, so their
    FormalSums compare and pair; another group still raises."""
    a, b = (FormalSum.delta(make_group("Z^2")) for _ in range(2))
    assert a.group is not b.group and len({a.group, b.group}) == 1
    assert a == b
    assert pairing(a, b) == 8 + 0j
    with pytest.raises(ValueError, match="different groups"):
        pairing(a, FormalSum.delta(make_group("Z^3")))


def test_wrong_shape_element_names_the_group():
    """zip in multiply would cut a Z^3 key short on Z^2; the window and
    translate reject it instead."""
    alpha = FormalSum(Z2, {(0, 0): 1.0, (1, 0, 0): 2.0})
    with pytest.raises(ValueError, match=r"\(1, 0, 0\) is not an element of Z\^2"):
        norms(alpha, 2.0)
    with pytest.raises(ValueError, match="Z\\^2"):
        translate(alpha, (1, 0))
    with pytest.raises(ValueError, match="Z\\^2"):
        translate(FormalSum.delta(Z2), (1, 0, 0))
    for word in [(1, -1), (3,), (0,)]:      # unreduced, letter out of range
        with pytest.raises(ValueError, match="F_2"):
            laplacian(FormalSum(F2, {word: 1.0}))


def test_window_rejects_coordinates_past_int64_products():
    """Window products run on int64 rows: a coordinate of 2^62 or more
    raises ValueError instead of overflowing or wrapping around."""
    H3 = make_group("H3")
    for group, x in ((Z2, (2 ** 70, 0)), (Z2, (2 ** 63 - 1, 0)),
                     (Z2, (0, -2 ** 62)), (H3, (1, 2, 2 ** 62))):
        for op in (laplacian, lambda a: norms(a, 2.0)):
            with pytest.raises(ValueError, match="2\\^62"):
                op(FormalSum(group, {x: 1.0}))
    big = 2 ** 62 - 1
    x = (big, 0, -big)
    assert laplacian(FormalSum(H3, {x: 1.0})).data == ref_laplacian(
        FormalSum(H3, {x: 1.0}))


@pytest.mark.parametrize("group", [Z2, F2, make_group("H3")],
                         ids=lambda g: g.name)
def test_pointwise_operators_build_no_neighbor_table(group, monkeypatch):
    """Operators that read values only make no group products; a seminorm
    on the same support makes one per (seed, generator) slot, once."""
    rng = np.random.default_rng(3)
    alpha = random_formal_sum(build_ball(group, 3), rng, 12, "nonnegative")
    nS = len(group.generators)
    calls = []
    mul, right_products = group.multiply, group.right_products
    monkeypatch.setattr(group, "multiply",
                        lambda x, y: calls.append(1) or mul(x, y))
    monkeypatch.setattr(group, "right_products",
                        lambda rows: calls.extend([1] * (len(rows) * nS))
                        or right_products(rows))
    lp_norm(alpha, 3.0)
    modulus(alpha)
    power(alpha, 2.5)
    truncate_min(alpha, alpha)
    funcspace.value_at_identity(alpha)
    assert calls == []
    norms(alpha, 2.0)
    assert len(calls) == len(alpha.data) * nS


def test_convolve_diff_delta():
    d = FormalSum.delta(Z1)
    out = convolve_diff(d, (1,))
    assert out((1,)) == 1.0 and out((0,)) == -1.0
    assert len(out.data) == 2


def test_convolve_diff_requires_generator():
    with pytest.raises(ValueError):
        convolve_diff(FormalSum.delta(Z1), (2,))


def test_laplacian_delta():
    lap = laplacian(FormalSum.delta(Z1))
    assert lap((0,)) == -2.0 and lap((1,)) == 1.0 and lap((-1,)) == 1.0


def test_delta_norms():
    rep = norms(FormalSum.delta(Z1), 2.0)
    assert rep.lp == 1.0
    assert rep.dp_seminorm == pytest.approx(2.0)          # sqrt(2|S|)
    assert rep.dp_norm == pytest.approx(math.sqrt(5.0))   # sqrt(2|S| + 1)
    assert rep.at_identity == 1.0
    assert rep.q == 2.0


def test_indicator_d1_norm():
    ind = FormalSum.indicator(Z1, [(-1,), (0,), (1,)])
    assert dirichlet_seminorm_pow(ind, 1.0) == pytest.approx(4.0)


def test_constant_block_seminorm_vanishing_inside():
    # only the two ends of the block contribute, for each generator
    ind = FormalSum.indicator(Z1, [(i,) for i in range(-5, 6)])
    assert dirichlet_seminorm_pow(ind, 2.0) == pytest.approx(4.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 16.0])
def test_norm_identity(p):
    rng = np.random.default_rng(0)
    ball = build_ball(Z2, 3)
    for _ in range(20):
        data = {ball.elements[i]: complex(rng.normal(), rng.normal())
                for i in rng.choice(ball.n_vertices, 8, replace=False)}
        rep = norms(FormalSum(Z2, data), p)
        assert rep.dp_norm ** p == pytest.approx(
            rep.dp_seminorm ** p + rep.at_identity ** p)


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, 17.0])
def test_p_out_of_range(p):
    with pytest.raises(ValueError):
        norms(FormalSum.delta(Z1), p)


def test_conjugate_index():
    assert conjugate_index(2.0) == 2.0
    assert conjugate_index(1.5) == 3.0
    assert conjugate_index(1.0) == math.inf


def test_window_seminorm_agrees_with_formal():
    """'zero'-convention window seminorm equals the global one when the
    support stays strictly inside the ball."""
    ball = build_ball(Z2, 5)
    rng = np.random.default_rng(1)
    inner = np.where(ball.word_length <= 3)[0]
    for p in (1.0, 2.0, 3.0):
        ids = rng.choice(inner, 6, replace=False)
        alpha = FormalSum(Z2, {ball.elements[i]: float(rng.normal()) for i in ids})
        w = BallFunction.from_formal_sum(ball, alpha, "zero")
        assert dirichlet_seminorm_pow(w, p) == pytest.approx(
            dirichlet_seminorm_pow(alpha, p))
        assert lp_norm(w, p) == pytest.approx(lp_norm(alpha, p))


def test_window_zero_convention_counts_boundary():
    """A function touching the ball's outer sphere picks up the implicit
    exterior differences under 'zero' but not under 'ball'."""
    ball = build_ball(Z1, 2)
    ones = BallFunction(ball, np.ones(ball.n_vertices), "zero")
    # ..0 1 1 1 1 1 0..: two cut edges, two directions each
    assert dirichlet_seminorm_pow(ones, 2.0) == pytest.approx(4.0)
    ball_conv = BallFunction(ball, np.ones(ball.n_vertices), "ball")
    assert dirichlet_seminorm_pow(ball_conv, 2.0) == 0.0


def test_harmonicity_linear_function():
    ball = build_ball(Z1, 6)
    vals = np.array([x[0] for x in ball.elements], dtype=float)
    u = BallFunction(ball, vals, "ball")
    rep = is_harmonic(u, ball.interior_indices())
    assert rep.harmonic
    # delta is not harmonic at the identity
    rep2 = is_harmonic(FormalSum.delta(Z1), [(0,)])
    assert not rep2.harmonic
    assert rep2.max_residual == pytest.approx(2.0)


def test_pairing_delta_delta():
    assert pairing(FormalSum.delta(Z1), FormalSum.delta(Z1)) == pytest.approx(4.0)


def test_pairing_laplacian_identity():
    rng = np.random.default_rng(2)
    ball = build_ball(F2, 4)
    for i in range(50):
        ids = rng.choice(ball.n_vertices, 10, replace=False)
        alpha = FormalSum(F2, {ball.elements[j]: complex(rng.normal(), rng.normal())
                               for j in ids})
        y = ball.elements[int(rng.integers(0, ball.n_vertices))]
        lap = laplacian(alpha)(y)
        val = pairing(FormalSum.delta(F2, y), alpha)
        assert abs(val + 2.0 * np.conj(lap)) <= 1e-12 * (1.0 + abs(lap))


def test_pairing_sesquilinear():
    a = FormalSum(Z1, {(0,): 1 + 2j, (1,): -1j})
    b = FormalSum(Z1, {(0,): 3.0, (2,): 1 + 1j})
    assert pairing(a, b) == pytest.approx(np.conj(pairing(b, a)))
    assert pairing(2j * a, b) == pytest.approx(2j * pairing(a, b))


def test_pairing_holder():
    rng = np.random.default_rng(3)
    ball = build_ball(Z2, 4)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        for _ in range(30):
            a = FormalSum(Z2, {ball.elements[i]: float(rng.normal())
                               for i in rng.choice(ball.n_vertices, 8, replace=False)})
            b = FormalSum(Z2, {ball.elements[i]: float(rng.normal())
                               for i in rng.choice(ball.n_vertices, 8, replace=False)})
            lhs = abs(pairing(a, b))
            rhs = dirichlet_seminorm_pow(a, p) ** (1 / p) * \
                dirichlet_seminorm_pow(b, q) ** (1 / q)
            assert lhs <= rhs * (1 + 1e-10) + 1e-12


def test_harmonicity_via_pairing_agrees():
    ball = build_ball(Z2, 4)
    rng = np.random.default_rng(4)
    domain = [ball.elements[i] for i in rng.integers(0, ball.n_vertices, 6)]
    alpha = FormalSum(Z2, {ball.elements[i]: float(rng.normal())
                           for i in rng.choice(ball.n_vertices, 10, replace=False)})
    direct = is_harmonic(alpha, domain, tol=1e-10).harmonic
    via, _ = harmonicity_via_pairing(alpha, domain)
    assert direct == via


def _via_pairing_per_delta(alpha, domain):
    """harmonicity_via_pairing as one pairing call per domain vertex."""
    residuals = [abs(pairing(FormalSum.delta(alpha.group, y), alpha)) for y in domain]
    return max(residuals, default=0.0)


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "F_2", "H3"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_harmonicity_via_pairing_matches_per_delta_loop(spec, kind):
    """The delta stacks give the per-delta maxima to 1e-12 relative, on
    domains of 5 points and of the whole ball (more than one stack of 32
    rows, except on Z^2)."""
    group = make_group(spec)
    ball = build_ball(group, 3)
    rng = np.random.default_rng(13)
    for trial in range(8):
        alpha = random_formal_sum(ball, rng, 12, kind)
        few = [ball.elements[int(i)] for i in rng.integers(0, ball.n_vertices, 5)]
        for domain in (few, ball.elements):
            want = _via_pairing_per_delta(alpha, domain)
            harmonic, got = harmonicity_via_pairing(alpha, domain)
            assert abs(got - want) <= 1e-12 * want
            assert harmonic == (want <= 2e-10)
    assert harmonicity_via_pairing(alpha, []) == (True, 0.0)
    zero = BallFunction(ball, np.zeros(ball.n_vertices))
    assert harmonicity_via_pairing(zero, ball.interior_indices()) == (True, 0.0)


def test_cocycle_extension_words():
    rng = np.random.default_rng(5)
    for group in (Z2, F2, make_group("H3")):
        ball = build_ball(group, 3)
        alpha = FormalSum(group, {ball.elements[i]: float(rng.normal())
                                  for i in rng.choice(ball.n_vertices, 8, replace=False)})
        gens = group.generators
        for _ in range(20):
            gw = [gens[int(j)] for j in rng.integers(0, len(gens), 2)]
            hw = [gens[int(j)] for j in rng.integers(0, len(gens), 3)]
            assert check_cocycle(alpha, gw, hw) <= 1e-12


def test_cocycle_extend_matches_direct_coboundary():
    alpha = FormalSum(F2, {(): 1.0, (1,): -2.0, (1, 2): 0.5})
    view = cocycle_view(alpha)
    word = [(1,), (2,), (-1,)]
    x = F2.identity()
    for g in word:
        x = F2.multiply(x, g)
    got = cocycle_extend(view, F2, word)
    want = translate(alpha, x) - alpha
    assert max((abs(v) for v in (got - want).data.values()), default=0.0) == 0.0


def test_truncate_min_tents():
    a = FormalSum(Z1, {(i,): 1.0 - abs(i) / 4 for i in range(-3, 4)})
    b = FormalSum(Z1, {(i,): 0.5 for i in range(-10, 11)})
    t = truncate_min(a, b)
    assert t((0,)) == 0.5 and t((3,)) == pytest.approx(0.25)
    assert t((5,)) == 0.0
    with pytest.raises(ValueError):
        truncate_min(a, FormalSum(Z1, {(0,): -1.0}))


def test_truncation_contracts_seminorm_when_dominating():
    # if beta >= alpha on supp(alpha), min(alpha, beta) = alpha exactly
    a = FormalSum(Z1, {(i,): 1.0 - abs(i) / 4 for i in range(-3, 4)})
    big = FormalSum(Z1, {(i,): 5.0 for i in range(-20, 21)})
    diff = a - truncate_min(a, big)
    assert dirichlet_seminorm_pow(diff, 2.0) == 0.0


def test_modulus_power():
    a = FormalSum(Z1, {(0,): -2.0, (1,): 1 + 1j})
    m = modulus(a)
    assert m((0,)) == 2.0 and m((1,)) == pytest.approx(math.sqrt(2))
    sq = power(m, 2.0)
    assert sq((0,)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        power(a, 2.0)
    with pytest.raises(ValueError):
        power(m, 0.5)


@given(st.lists(st.tuples(st.integers(-5, 5), st.floats(-3, 3)), max_size=10))
@settings(max_examples=100, deadline=None)
def test_modulus_contracts_dirichlet(pairs):
    data = {}
    for i, v in pairs:
        data[(i,)] = data.get((i,), 0.0) + v
    a = FormalSum(Z1, data)
    for p in (1.0, 2.0):
        assert dirichlet_seminorm_pow(modulus(a), p) <= \
            dirichlet_seminorm_pow(a, p) * (1 + 1e-9) + 1e-9


def test_ball_function_roundtrip():
    ball = build_ball(Z2, 3)
    a = FormalSum(Z2, {(0, 0): 1.0, (1, 1): -2.0})
    w = BallFunction.from_formal_sum(ball, a)
    assert w.to_formal_sum() == a


def test_ball_function_dtype_from_values():
    """Real unless some value has a nonzero imaginary part; values off the
    ball are dropped but still decide the type, as they always have."""
    ball = build_ball(Z2, 1)
    far = (5, 5)
    for data, dtype in (({(0, 0): 1 + 0j, (1, 0): 2}, float),
                        ({(0, 0): 3}, float),
                        ({}, float),
                        ({(0, 0): 1.0, (0, 1): 2j}, complex),
                        ({(0, 0): 1.0, far: 1j}, complex)):
        w = BallFunction.from_formal_sum(ball, FormalSum(Z2, data))
        assert w.values.dtype == dtype
        assert w.to_formal_sum() == FormalSum(
            Z2, {x: v for x, v in data.items() if x != far})


# ---------------------------------------------------------------------------
# reference oracle: each operator as a literal sum over the S-closure of the
# support times S, with the group's own multiply (no window, no arrays)

def _closure(*alphas):
    group = alphas[0].group
    return {group.multiply(x, h) for a in alphas for x in a.data
            for h in (group.identity(),) + group.generators}


def ref_convolve_diff(alpha, g):
    ginv = alpha.group.inverse(g)
    return {x: alpha(alpha.group.multiply(x, ginv)) - alpha(x)
            for x in _closure(alpha)}


def ref_laplacian(alpha):
    group = alpha.group
    return {x: sum(alpha(group.multiply(x, group.inverse(g))) - alpha(x)
                   for g in group.generators) for x in _closure(alpha)}


def ref_seminorm_pow(alpha, p):
    return sum(abs(d) ** p for g in alpha.group.generators
               for d in ref_convolve_diff(alpha, g).values())


def ref_pairing(alpha, beta):
    group = alpha.group
    total = 0j
    for x in _closure(alpha, beta):
        for g in group.generators:
            y = group.multiply(x, group.inverse(g))
            total += (alpha(y) - alpha(x)) * np.conj(beta(y) - beta(x))
    return total


def ref_harmonic_residual(alpha, domain):
    lap = ref_laplacian(alpha)
    return max((abs(lap.get(x, 0.0)) for x in domain), default=0.0)


def _close(got, want, scale):
    return abs(got - want) <= 1e-12 * (abs(want) + scale)


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "F_2", "H3"])
def test_window_operators_match_reference(spec):
    group = make_group(spec)
    ball = build_ball(group, 3)
    rng = np.random.default_rng(7)
    for trial in range(12):
        kind = "complex" if trial % 2 else "real"
        alpha, beta = (random_formal_sum(ball, rng, 12, kind) for _ in range(2))
        scale = max(abs(v) for v in alpha.data.values())
        # the same sums on the ball itself, whose 'zero' convention must
        # account for supports touching the outer sphere
        wa, wb = (BallFunction.from_formal_sum(ball, f) for f in (alpha, beta))
        for p in (1.0, 1.5, 2.0, 3.0):
            want = ref_seminorm_pow(alpha, p)
            assert _close(dirichlet_seminorm_pow(alpha, p), want, 0.0)
            assert _close(dirichlet_seminorm_pow(wa, p), want, 0.0)
        lap, want = laplacian(alpha), ref_laplacian(alpha)
        assert set(lap.data) <= set(want)
        assert all(_close(lap(x), v, scale) for x, v in want.items())
        for g in group.generators:
            diff, want = convolve_diff(alpha, g), ref_convolve_diff(alpha, g)
            assert set(diff.data) <= set(want)
            assert all(_close(diff(x), v, scale) for x, v in want.items())
        want = ref_pairing(alpha, beta)
        bound = abs(ref_pairing(alpha, alpha) * ref_pairing(beta, beta)) ** 0.5
        assert _close(pairing(alpha, beta), want, bound)
        assert _close(pairing(wa, wb), want, bound)
        domain = [ball.elements[i] for i in rng.integers(0, ball.n_vertices, 6)]
        want = ref_harmonic_residual(alpha, domain)
        assert _close(is_harmonic(alpha, domain).max_residual, want, scale)
        assert _close(harmonicity_via_pairing(alpha, domain)[1], 2.0 * want,
                      scale)


def _support_only_cases(group, rng):
    """(alpha, beta) pairs: a path of adjacent seeds with complex values, a
    real pair supported on the outer sphere of B_2 with overlapping
    supports, random complex and real sums, and the zero sum."""
    gens = group.generators
    path = [word_element(group, w) for w in ([], [0], [0, 0], [0, 0, 2], [2])]
    yield (FormalSum(group, {x: complex(k + 1, k - 1) for k, x in enumerate(path)}),
           FormalSum(group, {x: 1.0 - k for k, x in enumerate(path[1:])}))
    ball = build_ball(group, 2)
    sphere = [ball.elements[i] for i in ball.sphere_indices(2)]
    yield (FormalSum(group, {x: 1.0 + k for k, x in enumerate(sphere)}),
           FormalSum(group, {x: -0.5 * k for k, x in enumerate(sphere[::2])}
                     | {gens[0]: 2.0}))
    for kind in ("complex", "real"):
        yield tuple(random_formal_sum(build_ball(group, 3), rng, 15, kind)
                    for _ in range(2))
    yield FormalSum(group), FormalSum.delta(group)


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "F_2", "H3"])
def test_support_only_lift_matches_reference(spec, monkeypatch):
    """Norms, seminorms and pairings lift a FormalSum onto its support
    alone, with no closure vertex, and still match the literal sums over
    the S-closure."""
    group = make_group(spec)
    built = []
    window_fn = funcspace.window

    def recording_window(group, seeds, closure):
        seeds = list(seeds)
        ball = window_fn(group, seeds, closure)
        built.append((ball.n_vertices, len(set(seeds))))
        return ball

    monkeypatch.setattr(funcspace, "window", recording_window)
    for alpha, beta in _support_only_cases(group, np.random.default_rng(11)):
        at_e = abs(alpha(group.identity()))
        for p in (1.0, 1.5, 2.0, 3.0):
            want = ref_seminorm_pow(alpha, p)
            assert _close(dirichlet_seminorm_pow(alpha, p), want, 0.0)
            rep = norms(alpha, p)
            assert _close(rep.dp_seminorm ** p, want, 0.0)
            assert _close(rep.dp_norm ** p, want + at_e ** p, 0.0)
            assert rep.at_identity == at_e
            lp = sum(abs(v) ** p for v in alpha.data.values()) ** (1.0 / p)
            assert _close(lp_norm(alpha, p), lp, 0.0)
        bound = abs(ref_pairing(alpha, alpha) * ref_pairing(beta, beta)) ** 0.5
        for a, b in ((alpha, beta), (beta, alpha), (alpha, alpha)):
            assert _close(pairing(a, b), ref_pairing(a, b), bound)
        mod = modulus(alpha)
        assert _close(lemma61_check(mod, 2.5).lhs,
                      ref_seminorm_pow(power(mod, 2.5), 1.0), 0.0)
    # every lift above was support-only: |support ∪ domain| vertices
    assert built and all(n == seeds for n, seeds in built)
    # while a function-valued difference operator builds the closure
    laplacian(FormalSum.delta(group))
    assert built[-1] == (1 + len(group.generators), 1)


# Stacks: each scalar operator reduces over the last axis.  Sums, pointwise
# values and differences come out bit-identical per row; a p-th root (of
# lp_norm and the norms fields) is numpy's array power on a stack and
# Python's float power on one function, which differ in the last bits.
def _stack_ops(kind, convention):
    ops = {"laplacian": lambda f: laplacian(f).values,
           "convolve_diff": lambda f: convolve_diff(f, f.ball.group.generators[1]).values,
           "value_at_identity": funcspace.value_at_identity,
           "modulus": lambda f: modulus(f).values}
    roots = {}
    for p in (1.0, 1.5, 2.0, 3.0):
        ops[f"seminorm_pow-{p}"] = lambda f, p=p: dirichlet_seminorm_pow(f, p)
        roots[f"lp_norm-{p}"] = lambda f, p=p: lp_norm(f, p)
        for field in ("lp", "dp_seminorm", "dp_norm", "at_identity"):
            roots[f"norms.{field}-{p}"] = \
                lambda f, p=p, field=field: getattr(norms(f, p), field)
    if kind == "nonnegative":
        ops["power"] = lambda f: power(f, 2.5).values
        ops["truncate_min"] = lambda f: truncate_min(f, 0.5 * f).values
        if convention == "zero":
            for field in ("lhs", "rhs", "margin"):
                ops[f"lemma61.{field}"] = \
                    lambda f, field=field: getattr(lemma61_check(f, 2.5), field)
    return ops, roots


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "F_2", "H3"])
@pytest.mark.parametrize("kind", ["real", "complex", "nonnegative"])
@pytest.mark.parametrize("convention", ["zero", "ball"])
def test_stacked_operators_equal_row_calls(spec, kind, convention):
    rng = np.random.default_rng(11)
    ball = build_ball(make_group(spec), 3)
    rows = [random_ball_function(ball, rng, kind=kind).values for _ in range(6)]
    stack = BallFunction(ball, np.stack(rows), convention)
    singles = [BallFunction(ball, v, convention) for v in rows]
    ops, roots = _stack_ops(kind, convention)
    for name, op in {**ops, **roots}.items():
        got = op(stack)
        want = np.array([op(f) for f in singles])
        one = op(BallFunction(ball, rows[0][None, :], convention))
        assert got.shape == want.shape, name
        if name in ops:
            assert np.array_equal(got, want), name
            assert np.array_equal(one, want[:1]), name
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0, err_msg=name)
            np.testing.assert_allclose(one, want[:1], rtol=1e-15, atol=0, err_msg=name)
    flipped = BallFunction(ball, np.stack(rows[::-1]), convention)
    want = np.array([pairing(f, g) for f, g in zip(singles, singles[::-1])])
    assert np.array_equal(pairing(stack, flipped), want)
    one = pairing(singles[0].copy_with(rows[0][None, :]),
                  singles[5].copy_with(rows[5][None, :]))
    assert np.array_equal(one, want[:1])


def test_ball_function_rejects_bad_shapes():
    ball = build_ball(Z2, 2)
    n = ball.n_vertices
    for shape in [(), (n - 1,), (n + 1,), (3, n - 1), (2, 3, n), (n, 2)]:
        with pytest.raises(ValueError, match="shape"):
            BallFunction(ball, np.zeros(shape))


def test_one_function_operators_reject_stacks():
    ball = build_ball(Z2, 2)
    stack = BallFunction(ball, np.ones((2, ball.n_vertices)), "ball")
    with pytest.raises(ValueError, match="stack"):
        stack.to_formal_sum()
    with pytest.raises(ValueError, match="stack"):
        is_harmonic(stack, ball.interior_indices())
    with pytest.raises(ValueError, match="stack"):
        harmonicity_via_pairing(stack, ball.interior_indices())
