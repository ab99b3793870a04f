import tracemalloc
from collections import deque

import numpy as np
import pytest

from caylex import cayley, cli
from caylex.cayley import (EXTERIOR, BallSizeError, CayleyBall, SubsetView,
                           build_ball, vertex_boundary,
                           vertex_boundary_elements, window)
from caylex.groups import GroupModel, make_group
from conftest import word_element


class Cyclic5(GroupModel):
    """Z/5 with S = {+1, -1}: a finite group with no array arithmetic, so
    balls use the element-by-element default step, and small enough that
    both isoperimetric strategies absorb a vertex whose every neighbor is
    already inside."""

    name = "Z/5"
    generators = ((1,), (4,))
    inverse_gen_index = (1, 0)

    def identity(self):
        return (0,)

    def multiply(self, x, y):
        return ((x[0] + y[0]) % 5,)

    def inverse(self, x):
        return ((-x[0]) % 5,)


def ref_build_ball(group, radius):
    """Reference builder: a BFS from the identity with one multiply, one
    dict lookup and one neighbor row per vertex, generators in index order."""
    inv_gens = [group.inverse(g) for g in group.generators]
    elements = [group.identity()]
    index = {elements[0]: 0}
    wl = [0]
    rows = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        row = np.full(len(inv_gens), EXTERIOR, dtype=np.int64)
        for j, h in enumerate(inv_gens):
            y = group.multiply(elements[i], h)
            k = index.get(y)
            if k is None and wl[i] < radius:
                k = index[y] = len(elements)
                elements.append(y)
                wl.append(wl[i] + 1)
                queue.append(k)
            if k is not None:
                row[j] = k
        rows.append(row)
    return CayleyBall(group, radius, elements, index, np.vstack(rows),
                      np.array(wl, dtype=np.int64))


@pytest.mark.parametrize("group,R", [
    *[(make_group(spec), R)
      for spec in ["Z^1", "Z^2", "Z^3", "Z^4", "H3", "F_1", "F_2", "F_3"]
      for R in range(7)],
    *[(Cyclic5(), R) for R in (0, 1, 2, 3, 6)],
    (make_group("Z^40"), 1),     # 3^40 > 2^63: a packed base-3 key overflows
], ids=lambda v: getattr(v, "name", v))
def test_build_ball_matches_reference_bfs(group, R):
    got, want = build_ball(group, R), ref_build_ball(group, R)
    assert got.elements == want.elements
    assert got.index == want.index
    assert got.nbr.dtype == want.nbr.dtype
    assert np.array_equal(got.nbr, want.nbr)
    assert got.word_length.dtype == want.word_length.dtype
    assert np.array_equal(got.word_length, want.word_length)
    assert got.sphere_sizes == want.sphere_sizes


@pytest.mark.parametrize("group,R", [
    *[(make_group(spec), R) for spec in ["Z^2", "H3", "F_1", "F_2", "F_3"]
      for R in (0, 1, 4)],
    (Cyclic5(), 6),              # spheres 3..6 of Z/5 are empty
], ids=lambda v: getattr(v, "name", v))
def test_sphere_elements_decode_only_their_sphere(group, R):
    """Reading sphere_rows(r) decodes sphere r alone, not ``elements``."""
    want = ref_build_ball(group, R)
    for r in range(R + 1):
        ball = build_ball(group, R)
        sphere = [want.elements[i] for i in want.sphere_indices(r)]
        assert [tuple(x) for x in ball.sphere_rows(r).tolist()] == sphere
        assert ball._elements is None
        assert ball.elements == want.elements
        assert [ball.elements[i] for i in ball.sphere_indices(r)] == sphere


@pytest.mark.parametrize("group,R", [
    *[(make_group(spec), R) for spec in ["Z^2", "H3", "F_2"] for R in (0, 4)],
    (Cyclic5(), 6),
], ids=lambda v: getattr(v, "name", v))
def test_sphere_rows_are_the_sphere_elements(group, R):
    """sphere_rows gives the elements of a sphere as int rows, from the
    sphere decoder and, once ``elements`` is read, from the elements;
    restrict shares them."""
    ball = build_ball(group, R)
    for read in (False, True):
        for b in (ball, ball.restrict(R // 2)):
            for r in range(b.radius + 1):
                rows = b.sphere_rows(r)
                assert rows.dtype == np.int64
                assert [tuple(x) for x in rows.tolist()] == (
                    [b.elements[i] for i in b.sphere_indices(r)] if read
                    else [tuple(x) for x in b.sphere_rows(r).tolist()])
        assert (ball._elements is not None) == read
        ball.elements


@pytest.mark.parametrize("group,R", [
    *[(make_group(spec), 5)
      for spec in ["Z^1", "Z^2", "Z^3", "F_1", "F_2", "H3"]],
    (Cyclic5(), 6),              # past the diameter 2 of Z/5
], ids=lambda v: getattr(v, "name", v))
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_restrict_equals_a_fresh_build(group, R, read_first):
    """B_r read from B_R by restrict is build_ball(group, r) for every
    r <= R, whether or not B_R's elements were read first; reading B_r's
    elements does not decode B_R's element list."""
    big = build_ball(group, R)
    if read_first:
        big.elements
    for r in range(R + 1):
        assert (big._elements is None) == (not read_first)
        got, want = big.restrict(r), build_ball(group, r)
        assert got.radius == r
        assert got.nbr.dtype == want.nbr.dtype
        assert np.array_equal(got.nbr, want.nbr)
        assert np.array_equal(got.word_length, want.word_length)
        assert got.sphere_sizes == want.sphere_sizes
        assert np.array_equal(got.interior, want.interior)
        assert got.sphere_rows(r).tolist() == want.sphere_rows(r).tolist()
        assert got.elements == want.elements
        assert got.index == want.index
    assert big.restrict(R) is big
    for r in (-1, R + 1):
        with pytest.raises(ValueError):
            big.restrict(r)


def test_vertex_cap_checked_before_a_sphere_is_built():
    """|B_30(F_2)| is about 4e14; the cap stops the build at sphere 4 with
    next to nothing allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(BallSizeError, match="exceeds vertex cap 100"):
            build_ball(make_group("F_2"), 30, max_vertices=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("spec,R", [("F_2", 5), ("H3", 4)])
def test_ball_neighbors_json_matches_reference(spec, R, tmp_path, monkeypatch):
    argv = ["ball", "--group", spec, "--radius", str(R), "--neighbors",
            "--out"]
    assert cli.main([*argv, str(tmp_path / "got.json")]) == cli.EXIT_OK
    monkeypatch.setattr(cli, "build_ball", ref_build_ball)
    assert cli.main([*argv, str(tmp_path / "want.json")]) == cli.EXIT_OK
    assert ((tmp_path / "got.json").read_text()
            == (tmp_path / "want.json").read_text())


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
                k = ball.nbr[i, j]
                if k != EXTERIOR:
                    back = ball.nbr[k, inv[j]]
                    assert back == i or back == EXTERIOR


def test_neighbor_table_matches_arithmetic():
    group = make_group("H3")
    ball = build_ball(group, 3)
    for i in range(ball.n_vertices):
        for j, g in enumerate(group.generators):
            y = group.multiply(ball.elements[i], group.inverse(g))
            k = ball.nbr[i, j]
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


def test_subsetview_boundary_agrees_with_element_version(monkeypatch):
    """The element-set boundary reads the window of A alone (|A| vertices,
    no closure) and agrees with the ball's and the reference's."""
    sizes, window_fn = [], cayley.window

    def recording_window(group, seeds, closure):
        ball = window_fn(group, seeds, closure)
        sizes.append((ball.n_vertices, closure))
        return ball

    monkeypatch.setattr(cayley, "window", recording_window)
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
            assert sizes[-1] == (len(A), False)


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
    seeds = [word_element(group, w) for w in ([], [0], [0, 2], [2, 2, 1], [0])]
    n_seeds = len(set(seeds))
    nS = len(group.generators)
    # products are counted on both routes: one per multiply, and |S| per
    # row handed to the batched right_products
    calls = []
    mul, right_products = group.multiply, group.right_products
    with monkeypatch.context() as m:
        m.setattr(group, "multiply", lambda x, y: calls.append(1) or mul(x, y))
        m.setattr(group, "right_products",
                  lambda rows: calls.extend([1] * (len(rows) * nS))
                  or right_products(rows))
        win = window(group, seeds, True)
    assert len(calls) == n_seeds * nS      # closure rows cost no products
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


def ref_window(group, seeds, closure=True):
    """Reference window: one multiply per (seed, generator), closure
    elements numbered in discovery order, closure rows by multiply too."""
    index = {x: i for i, x in enumerate(dict.fromkeys(seeds))}
    n_seeds = len(index)
    inv = [group.inverse(g) for g in group.generators]
    prods = [group.multiply(x, h) for x in list(index) for h in inv]
    if closure:
        for y in prods:
            index.setdefault(y, len(index))
    seedset = set(list(index)[:n_seeds])
    nbr = [[index[y] if y in index and (i < n_seeds or y in seedset)
            else EXTERIOR for y in (group.multiply(x, h) for h in inv)]
           for i, x in enumerate(index)]
    return list(index), np.array(nbr, dtype=np.int64).reshape(len(index), len(inv))


@pytest.mark.parametrize("group", [make_group(s) for s in
                                   ("Z^1", "Z^2", "Z^3", "F_1", "F_2", "H3")]
                         + [Cyclic5()], ids=lambda g: g.name)
def test_window_matches_reference(group):
    """window, with the closure and on the seeds alone, is byte-identical
    to the multiply-based reference: element order, index and neighbor
    table, for seed sets that touch, repeat or are empty."""
    ball = build_ball(group, 3)
    rng = np.random.default_rng(5)
    seed_sets = [[], [group.identity()], list(ball.elements)]
    seed_sets += [[ball.elements[i] for i in rng.integers(0, ball.n_vertices, k)]
                  for k in (1, 2, 6, 15, 40)]
    for seeds in seed_sets:
        for closure in (True, False):
            win = window(group, seeds, closure)
            elements, nbr = ref_window(group, seeds, closure)
            assert win.elements == elements
            assert win.index == {x: i for i, x in enumerate(elements)}
            assert np.array_equal(win.nbr, nbr) and win.nbr.dtype == np.int64
            n_seeds = len(set(seeds))
            assert list(win.word_length) == \
                [0] * n_seeds + [1] * (len(elements) - n_seeds)


# ---------------------------------------------------------------------------
# cells: the orbits of the automorphisms fixing e

def first_occurrence_labels(keys):
    """Labels 0, 1, ... of a key sequence, numbered by first occurrence."""
    labels = {}
    return np.array([labels.setdefault(k, len(labels)) for k in keys])


def ref_refine(ball, colours):
    """One round of colour refinement: a vertex's new colour is its colour
    with the multiset of its neighbours' colours, EXTERIOR counted as a
    colour of its own.  A partition is equitable iff no class splits."""
    return first_occurrence_labels(
        (int(colours[i]), tuple(sorted(EXTERIOR if j == EXTERIOR
                                       else int(colours[j]) for j in row)))
        for i, row in enumerate(ball.nbr))


def ref_orbits(ball, maps):
    """Orbit labels of the ball's elements under the group the maps (on
    element tuples) generate, by union-find."""
    parent = list(range(ball.n_vertices))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, x in enumerate(ball.elements):
        for f in maps:
            parent[find(i)] = find(ball.index[f(x)])
    return first_occurrence_labels(find(i) for i in range(ball.n_vertices))


# generators of automorphism groups of (G, S): signed coordinate
# permutations of Z^d, and the 8 automorphisms of H3 named in orbit_key
AUTOMORPHISMS = {
    "Z^1": [lambda x: (-x[0],)],
    "Z^2": [lambda x: (-x[0], x[1]), lambda x: (x[1], x[0])],
    "Z^3": [lambda x: (-x[0], x[1], x[2]), lambda x: (x[1], x[0], x[2]),
            lambda x: (x[1], x[2], x[0])],
    "H3": [lambda x: (-x[0], x[1], -x[2]), lambda x: (x[0], -x[1], -x[2]),
           lambda x: (x[1], x[0], x[0] * x[1] - x[2])],
}
CELL_BALLS = [("Z^1", 8), ("Z^2", 8), ("Z^3", 5), ("H3", 6), ("F_2", 5)]


def cells(ball):
    """The ball's cells, orbit_ranks, numbered by first occurrence."""
    return first_occurrence_labels(ball.orbit_ranks.tolist())


@pytest.mark.parametrize("spec,R", CELL_BALLS)
def test_cells_are_an_equitable_partition(spec, R):
    ball = build_ball(make_group(spec), R)
    labels = cells(ball)
    assert np.array_equal(ref_refine(ball, labels), labels)
    # cells lie in spheres, and e is a cell of its own
    assert all(len(set(ball.word_length[labels == c])) == 1
               for c in range(labels.max() + 1))
    assert np.count_nonzero(labels == labels[0]) == 1


@pytest.mark.parametrize("spec,R", CELL_BALLS)
def test_cells_are_the_orbits(spec, R):
    ball = build_ball(make_group(spec), R)
    if spec == "F_2":
        # the tree's automorphisms fixing e are transitive on spheres
        want = ball.word_length
    else:
        want = ref_orbits(ball, AUTOMORPHISMS[spec])
    assert np.array_equal(cells(ball), want)


@pytest.mark.parametrize("spec", ["Z^2", "Z^3", "H3", "F_2"])
def test_restricted_cells_are_a_prefix(spec):
    group = make_group(spec)
    big = build_ball(group, 6)
    for r in range(7):
        small = big.restrict(r)
        assert np.array_equal(cells(small), cells(big)[:small.n_vertices])
        assert np.array_equal(cells(small), cells(build_ball(group, r)))


def test_no_key_makes_single_vertex_cells():
    ball = build_ball(Cyclic5(), 2)
    assert np.array_equal(cells(ball), np.arange(ball.n_vertices))
    win = window(make_group("Z^2"), [(0, 0), (1, 0)], True)
    assert np.array_equal(cells(win), np.arange(win.n_vertices))


def graphs(group, R):
    """The cell graphs of B_R: the closed form, where the family has one,
    and the built ball's."""
    return [g for g in (cayley.cell_graph(group, R),
                        build_ball(group, R).cell_graph()) if g is not None]


@pytest.mark.parametrize("spec,R", [("H3", 3), ("F_2", 4), ("Z^2", 5)])
def test_edge_arrays_keep_the_slots_inside_the_first_rows(spec, R):
    """edge_arrays(nbr, k) lists the slots of rows 0..k-1 in (row, slot)
    order, a slot leaving when it holds EXTERIOR or an index >= k, on a
    ball's table (B_r the first rows of B_R) and on its cell graph, which
    is cached."""
    ball = build_ball(make_group(spec), R)
    graph = ball.cell_graph()
    assert ball.cell_graph() is graph
    n_cells = len(graph[1])
    for nbr, ks in ((ball.nbr, [1, ball.sphere_sizes[0] + ball.sphere_sizes[1],
                                 17, ball.n_vertices]),
                    (graph[2], [1, n_cells // 2, n_cells])):
        for k in ks:
            rows = [(i, j) for i in range(k) for j in nbr[i].tolist()]
            src, dst, ext = cayley.edge_arrays(nbr, k)
            assert list(zip(src.tolist(), dst.tolist())) == \
                [(i, j) for i, j in rows if 0 <= j < k]
            assert ext.tolist() == [i for i, j in rows if not 0 <= j < k]


@pytest.mark.parametrize("spec,R", [
    *CELL_BALLS, ("Z^4", 3), ("F_3", 4), ("F_1", 5)])
def test_cell_graph_is_the_quotient_of_the_ball(spec, R):
    """cell_graph numbers cells as orbit_ranks does, with their vertex
    counts and word lengths, and each cell's slots are those of each of its
    vertices, up to order; at a larger radius, the cells of B_R are a
    prefix whose slots out of it point past it.  A built ball's
    CayleyBall.cell_graph is such a graph too, H3's included."""
    group = make_group(spec)
    ball = build_ball(group, R)
    ranks = ball.orbit_ranks
    for (word_length, sizes, nbr), wider in zip(graphs(group, R),
                                               graphs(group, R + 2)):
        k = len(sizes)
        assert np.array_equal(np.bincount(ranks), sizes)
        assert np.array_equal(word_length[ranks], ball.word_length)
        assert np.array_equal(np.unique(ranks, return_inverse=True)[1], ranks)
        cell_slots = np.sort(np.where(nbr < k, nbr, k), axis=1)
        vertex_slots = np.where(ball.nbr == EXTERIOR, k,
                                ranks[np.clip(ball.nbr, 0, None)])
        assert np.array_equal(np.sort(vertex_slots, axis=1), cell_slots[ranks])
        assert np.array_equal(wider[0][:k], word_length)
        assert np.array_equal(wider[1][:k], sizes)
        assert np.array_equal(np.where(wider[2][:k] < k, wider[2][:k], k),
                              np.where(nbr < k, nbr, k))


@pytest.mark.parametrize("spec,R", [
    *[(f"Z^{d}", R) for d in range(1, 5) for R in range(5)], ("Z^2", 9),
    *[(f"F_{k}", R) for k in range(1, 4) for R in range(5)]])
def test_ball_cell_graph_equals_the_closed_form(spec, R):
    """The ball's cells and the closed-form cells are one graph: the same
    word lengths and sizes, and the same slot rows once each slot out of
    B_R reads k and each row is sorted."""
    closed, built = graphs(make_group(spec), R)
    k = len(closed[1])
    assert np.array_equal(built[0], closed[0])
    assert np.array_equal(built[1], closed[1])
    assert built[2].max() <= k
    assert np.array_equal(np.sort(built[2], axis=1),
                          np.sort(np.where(closed[2] < k, closed[2], k), axis=1))


@pytest.mark.parametrize("spec,last", [("F_2", 13), ("F_3", 9)])
def test_free_group_cap_is_checked_without_huge_ball_sizes(spec, last,
                                                           monkeypatch):
    """The last radius under the default cap passes and the next raises; a
    radius of 10**7 raises having evaluated |B_r| only for r up to twice
    the first radius past the cap, not (2k - 1)^(10**7)."""
    monkeypatch.delenv("CAYLEX_MAX_VERTICES", raising=False)
    group = make_group(spec)
    assert group.ball_size(last) <= cayley.DEFAULT_MAX_VERTICES
    assert cayley.check_ball_size(group, last) == group.ball_size(last)
    with pytest.raises(BallSizeError, match=f"R={last + 1} exceeds"):
        cayley.check_ball_size(group, last + 1)
    evaluated, ball_size = [], group.ball_size
    monkeypatch.setattr(group, "ball_size",
                        lambda R: evaluated.append(R) or ball_size(R))
    with pytest.raises(BallSizeError, match="R=10000000 exceeds vertex cap"):
        cayley.check_ball_size(group, 10 ** 7)
    assert max(evaluated) <= 2 * (last + 1)


def test_cell_graph_is_refused_past_the_cap_before_it_is_built(monkeypatch):
    z2 = make_group("Z^2")
    monkeypatch.setattr(type(z2), "cell_graph",
                        lambda self, R: pytest.fail("cells were built"))
    with pytest.raises(BallSizeError, match="Z\\^2 R=3000000 exceeds vertex "
                                            "cap 5000000; lower R or raise "
                                            "CAYLEX_MAX_VERTICES"):
        cayley.cell_graph(z2, 3_000_000)
    assert cayley.cell_graph(make_group("H3"), 3_000_000) is None
    # the cap counts vertices as build_ball does: |B_R| = cap passes
    monkeypatch.setenv("CAYLEX_MAX_VERTICES", str(z2.ball_size(10)))
    with pytest.raises(BallSizeError):
        cayley.cell_graph(z2, 11)
    with pytest.raises(pytest.fail.Exception, match="cells were built"):
        cayley.cell_graph(z2, 10)
    build_ball(z2, 10)
    with pytest.raises(BallSizeError):
        build_ball(z2, 11)


@pytest.mark.parametrize("build", [build_ball, cayley.cell_graph])
def test_negative_radius_is_rejected(build):
    with pytest.raises(ValueError, match=r"^radius must be >= 0$"):
        build(make_group("Z^2"), -1)


@pytest.mark.parametrize("spec", ["Z^2", "H3", "F_2"])
def test_closure_window_seed_rows_are_the_seeds_alone_rows(spec):
    """A closure window numbers each product off the seeds as it first
    meets it in its seed rows, and those rows, each closure index read as
    EXTERIOR, are the rows of the window of the seeds alone
    (test_window_matches_reference checks both against multiply)."""
    group = make_group(spec)
    ball = build_ball(group, 3)
    rng = np.random.default_rng(11)
    for k in (1, 4, 17):
        seeds = [ball.elements[i] for i in rng.integers(0, ball.n_vertices, k)]
        n_seeds = len(set(seeds))
        closed, alone = window(group, seeds, True), window(group, seeds, False)
        seed_rows = closed.nbr[:n_seeds]
        assert np.array_equal(np.where(seed_rows < n_seeds, seed_rows, EXTERIOR),
                              alone.nbr)
        firsts = dict.fromkeys(y for y in seed_rows.ravel() if y >= n_seeds)
        assert list(firsts) == list(range(n_seeds, closed.n_vertices))
