import numpy as np
import pytest

from caylex.cayley import (EXTERIOR, BallSizeError, SubsetView, build_ball,
                           vertex_boundary, vertex_boundary_elements, window)
from caylex.groups import make_group


@pytest.mark.parametrize("R", [0, 1, 4, 10])
def test_z1_ball_size(R):
    ball = build_ball(make_group("Z^1"), R)
    assert ball.n_vertices == 2 * R + 1


@pytest.mark.parametrize("R,expected", [(0, 1), (1, 5), (2, 13)])
def test_z2_ball_size(R, expected):
    assert build_ball(make_group("Z^2"), R).n_vertices == expected


@pytest.mark.parametrize("R", [0, 1, 2, 3, 5])
def test_f2_ball_size(R):
    ball = build_ball(make_group("F_2"), R)
    assert ball.n_vertices == 2 * 3 ** R - 1
    if R >= 1:
        assert ball.sphere_sizes[R] == 4 * 3 ** (R - 1)


def test_sphere_sizes_sum():
    ball = build_ball(make_group("H3"), 6)
    assert sum(ball.sphere_sizes) == ball.n_vertices
    assert ball.sphere_sizes[0] == 1
    assert ball.sphere_sizes[1] == 4


def test_identity_is_vertex_zero():
    ball = build_ball(make_group("Z^2"), 3)
    assert ball.elements[0] == (0, 0)
    assert ball.word_length[0] == 0


def test_neighbor_table_involution():
    """Following generator j then its inverse returns to the start."""
    for spec in ["Z^2", "F_2", "H3"]:
        group = make_group(spec)
        ball = build_ball(group, 4)
        inv = group.inverse_gen_index
        for i in range(ball.n_vertices):
            for j in range(len(group.generators)):
                k = ball.neighbor(i, j)
                if k != EXTERIOR:
                    back = ball.neighbor(k, inv[j])
                    assert back == i or back == EXTERIOR


def test_neighbor_table_matches_arithmetic():
    group = make_group("H3")
    ball = build_ball(group, 3)
    for i in range(ball.n_vertices):
        for j, g in enumerate(group.generators):
            y = group.multiply(ball.elements[i], group.inverse(g))
            k = ball.neighbor(i, j)
            if k == EXTERIOR:
                assert y not in ball.index
            else:
                assert ball.elements[k] == y


def test_build_determinism():
    a = build_ball(make_group("F_2"), 5)
    b = build_ball(make_group("F_2"), 5)
    assert a.elements == b.elements
    assert np.array_equal(a.nbr, b.nbr)


def test_interior_matches_word_length():
    ball = build_ball(make_group("Z^3"), 4)
    assert np.array_equal(ball.interior, ball.word_length < 4)
    assert len(ball.interior_indices()) == build_ball(make_group("Z^3"), 3).n_vertices


def test_vertex_cap(monkeypatch):
    with pytest.raises(BallSizeError):
        build_ball(make_group("F_2"), 10, max_vertices=100)
    monkeypatch.setenv("CAYLEX_MAX_VERTICES", "50")
    with pytest.raises(BallSizeError):
        build_ball(make_group("Z^2"), 10)


def test_boundary_interval():
    group = make_group("Z^1")
    A = {(i,) for i in range(-2, 3)}
    assert vertex_boundary_elements(group, A) == {(-2,), (2,)}


def test_boundary_square_4x4():
    group = make_group("Z^2")
    A = {(i, j) for i in range(4) for j in range(4)}
    b = vertex_boundary_elements(group, A)
    assert len(b) == 12   # 16 cells minus the 4 interior ones


@pytest.mark.parametrize("d,m", [(1, 5), (2, 4), (3, 3)])
def test_boundary_cube_closed_form(d, m):
    import itertools
    group = make_group(f"Z^{d}")
    A = set(itertools.product(range(m), repeat=d))
    inner = max(m - 2, 0) ** d
    assert len(vertex_boundary_elements(group, A)) == m ** d - inner


def test_boundary_empty_and_singleton():
    group = make_group("Z^2")
    assert vertex_boundary_elements(group, set()) == set()
    assert vertex_boundary_elements(group, {(0, 0)}) == {(0, 0)}


def ref_vertex_boundary(group, A):
    """Reference vertex boundary by group arithmetic: the x in A with some
    x g outside A."""
    out = set()
    for x in A:
        for g in group.generators:
            if group.multiply(x, g) not in A:
                out.add(x)
                break
    return out


def test_subsetview_boundary_agrees_with_element_version():
    rng = np.random.default_rng(0)
    for spec in ["Z^2", "Z^3", "F_2", "H3"]:
        group = make_group(spec)
        ball = build_ball(group, 5 if spec == "Z^2" else 3)
        for _ in range(20):
            ids = rng.choice(ball.n_vertices, size=12, replace=False)
            view = SubsetView.from_indices(ball, ids)
            A = {ball.elements[i] for i in ids}
            got = vertex_boundary(ball, view).element_set()
            want = vertex_boundary_elements(group, A)
            assert got == frozenset(want)
            assert want == ref_vertex_boundary(group, A)


def test_growth_sanity():
    """|B_2R| stays within polynomial factors for Z^d, and F_2 at least
    doubles per radius step."""
    for d in (1, 2, 3):
        g = make_group(f"Z^{d}")
        n1 = build_ball(g, 4).n_vertices
        n2 = build_ball(g, 8).n_vertices
        assert n2 <= (2.5 ** d) * n1
    f = make_group("F_2")
    sizes = [build_ball(f, r).n_vertices for r in range(1, 6)]
    assert all(b >= 2 * a for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("spec", ["Z^2", "F_2", "H3"])
def test_window_closure_table(spec, monkeypatch):
    group = make_group(spec)
    seeds = [group.word_element(w) for w in ([], [0], [0, 2], [2, 2, 1], [0])]
    calls = []
    mul = group.multiply
    with monkeypatch.context() as m:
        m.setattr(group, "multiply", lambda x, y: calls.append(1) or mul(x, y))
        win = window(group, seeds)
    n_seeds = len(set(seeds))
    nS = len(group.generators)
    assert len(calls) == n_seeds * nS      # closure rows cost no multiplies
    assert win.elements[:n_seeds] == list(dict.fromkeys(seeds))
    assert win.sphere_sizes == [n_seeds, win.n_vertices - n_seeds]
    assert (win.nbr[:n_seeds] != EXTERIOR).all()
    for i, x in enumerate(win.elements):
        for j, g in enumerate(group.generators):
            y = group.multiply(x, group.inverse(g))
            k = win.nbr[i, j]
            if i < n_seeds or y in seeds:
                assert win.elements[k] == y
            else:                          # closure-to-closure or outside
                assert k == EXTERIOR
