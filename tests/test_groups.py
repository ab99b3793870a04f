from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caylex.cayley import build_ball
from caylex.groups import (FreeGroup, HeisenbergGroup, UnknownFamilyError,
                           make_group)
from conftest import word_element

ALL_SPECS = ["Z^1", "Z^2", "Z^3", "F_2", "H3"]


@pytest.mark.parametrize("spec,family,n_gens", [
    ("Z^1", "Z^d", 2),
    ("Z^3", "Z^d", 6),
    ("F_2", "F_k", 4),
    ("F2", "F_k", 4),
    ("Zd".replace("d", "2"), "Z^d", 4),
    ("H3", "H3", 4),
    ("h_3", "H3", 4),
])
def test_make_group(spec, family, n_gens):
    g = make_group(spec)
    assert len(g.generators) == n_gens


@pytest.mark.parametrize("bad", ["Q5", "Z^0", "F_0", "H4", "", "Z^-1"])
def test_unknown_family(bad):
    with pytest.raises((UnknownFamilyError, ValueError)):
        make_group(bad)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_generating_set_symmetric(spec):
    g = make_group(spec)
    gens = g.generators
    assert g.identity() not in gens
    for j, s in enumerate(gens):
        assert gens[g.inverse_gen_index[j]] == g.inverse(s)
        assert g.multiply(s, g.inverse(s)) == g.identity()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_group_axioms_random(spec):
    g = make_group(spec)
    rng = np.random.default_rng(0)
    # random elements as words in the generators
    def rand_elem():
        return word_element(g, rng.integers(0, len(g.generators),
                                            rng.integers(0, 8)))
    e = g.identity()
    for _ in range(10_000 // 10):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))
        assert g.multiply(x, e) == x and g.multiply(e, x) == x
        assert g.multiply(x, g.inverse(x)) == e
        assert g.inverse(g.inverse(x)) == x


@pytest.mark.parametrize("spec", ["Z^1", "Z^3", "H3"])
def test_central_element(spec):
    g = make_group(spec)
    c = g.central_element
    assert c is not None
    rng = np.random.default_rng(1)
    for _ in range(1000 // 10):
        x = word_element(g, rng.integers(0, len(g.generators),
                                         rng.integers(0, 10)))
        assert g.multiply(x, c) == g.multiply(c, x)


def test_free_group_center_trivial_flag():
    assert make_group("F_2").central_element is None
    assert make_group("F_1").central_element == (1,)


def test_heisenberg_matrix_oracle():
    """The (x, y, z) coordinates must follow upper-triangular 3x3 integer
    matrix multiplication with x above the diagonal in row 1, y in row 2,
    z in the corner."""
    h = HeisenbergGroup()

    def to_mat(u):
        return np.array([[1, u[0], u[2]], [0, 1, u[1]], [0, 0, 1]])

    def from_mat(m):
        return (int(m[0, 1]), int(m[1, 2]), int(m[0, 2]))

    rng = np.random.default_rng(2)
    for _ in range(200):
        u = tuple(int(v) for v in rng.integers(-5, 6, 3))
        v = tuple(int(w) for w in rng.integers(-5, 6, 3))
        assert h.multiply(u, v) == from_mat(to_mat(u) @ to_mat(v))
        assert h.inverse(u) == from_mat(np.round(np.linalg.inv(to_mat(u))).astype(int))


def test_heisenberg_commutator_is_central():
    h = HeisenbergGroup()
    a, b = (1, 0, 0), (0, 1, 0)
    comm = h.multiply(h.multiply(a, b), h.multiply(h.inverse(a), h.inverse(b)))
    assert comm == (0, 0, 1) == h.central_element


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20))
@settings(max_examples=200, deadline=None)
def test_free_reduction(word):
    """Multiplying letter by letter always lands in reduced normal form."""
    f = FreeGroup(2)
    x = f.identity()
    for c in word:
        x = f.multiply(x, (c,))
    assert all(a != -b for a, b in zip(x, x[1:]))
    # round-trips through the string form
    assert f.parse_element(f.format_element(x)) == x


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_format_parse_roundtrip(spec):
    g = make_group(spec)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = word_element(g, rng.integers(0, len(g.generators),
                                         rng.integers(0, 6)))
        assert g.parse_element(g.format_element(x)) == x


@pytest.mark.parametrize("spec,text,message", [
    ("Z^1", "1", "bad Z^1 element: '1'"),
    ("Z^2", "1,2", "bad Z^2 element: '1,2'"),
    ("Z^2", "(1,2,3)", "expected 2 coordinates in '(1,2,3)'"),
    ("Z^3", "(1,2)", "expected 3 coordinates in '(1,2)'"),
    ("Z^4", " (1,2) ", "expected 4 coordinates in ' (1,2) '"),
    ("H3", "(1,2", "bad H3 element: '(1,2'"),
    ("H3", "()", "expected 3 coordinates in '()'"),
])
def test_coordinate_codec_errors(spec, text, message):
    with pytest.raises(ValueError) as exc:
        make_group(spec).parse_element(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec", ["Z^1", "Z^2", "Z^3", "Z^4", "H3"])
def test_coordinate_codec_roundtrip(spec):
    g = make_group(spec)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = tuple(int(a) for a in rng.integers(-1000, 1000,
                                               len(g.identity())))
        text = g.format_element(x)
        assert text == "(" + ",".join(map(str, x)) + ")"
        assert g.parse_element(text) == g.parse_element(f" {text} ") == x


def test_free_group_keeps_its_word_codec():
    f = make_group("F_2")
    assert f.parse_element("abBA") == () == f.identity()
    assert f.format_element((1, 2, -1)) == "abA"
    with pytest.raises(ValueError, match="bad F_2 letter 'c'"):
        f.parse_element("ac")


def test_growth_degree_labels():
    assert make_group("Z^3").growth_degree == 3
    assert make_group("F_1").growth_degree == 1
    assert make_group("F_2").growth_degree is None
    assert make_group("H3").growth_degree == 4


@pytest.mark.parametrize("spec", ["Z^1", "Z^2", "Z^3", "H3"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_lexicographic_order_is_left_invariant(spec, data):
    """a < b implies g a < g b, the fact that lets exhaustive profiles root
    each set at its least element."""
    g = make_group(spec)
    assert g.lex_left_invariant
    element = st.tuples(*[st.integers(-50, 50)] * len(g.identity()))
    x, a, b = data.draw(element), data.draw(element), data.draw(element)
    if a > b:
        a, b = b, a
    if a < b:
        assert g.multiply(x, a) < g.multiply(x, b)


def test_free_group_lexicographic_order_is_not_left_invariant():
    f = make_group("F_2")
    assert not f.lex_left_invariant
    # () < (1,), but a^-1 () = (-1,) > () = a^-1 a
    assert f.identity() < (1,)
    assert f.multiply((-1,), f.identity()) > f.multiply((-1,), (1,))


# ---------------------------------------------------------------------------
# closed-form cells

def _zd_ball_size(d, R):
    return sum(2 ** k * comb(d, k) * comb(R, k) for k in range(d + 1))


def _fk_ball_size(k, R):
    return 1 + k * ((2 * k - 1) ** R - 1) // (k - 1)


@pytest.mark.parametrize("spec,R,want", [
    *[(f"Z^{d}", R, _zd_ball_size(d, R)) for d in (1, 2, 3, 4)
      for R in (0, 1, 2, 7, 20)],
    *[(f"F_{k}", R, _fk_ball_size(k, R)) for k in (2, 3)
      for R in (0, 1, 2, 7, 12)],
])
def test_cell_sizes_sum_to_the_ball_size(spec, R, want):
    group = make_group(spec)
    word_length, sizes, nbr = group.cell_graph(R)
    assert int(sizes.sum()) == group.ball_size(R) == want
    assert len(word_length) == len(sizes) == len(nbr)
    assert np.all(np.diff(word_length) >= 0) and word_length[-1] == R


def test_h3_has_no_closed_form_cells():
    h3 = make_group("H3")
    assert h3.ball_size(4) is None and h3.cell_graph(4) is None


def _h3_least_images(rows):
    """orbit_key's reference: the least of the 8 images of each row, as
    tuples, by Python's comparison."""
    out = []
    for x, y, z in rows.tolist():
        out.append(min((a * s, b * t, c * s * t)
                       for s in (1, -1) for t in (1, -1)
                       for a, b, c in [(x, y, z), (y, x, x * y - z)]))
    return np.array(out, dtype=np.int64)


def test_h3_orbit_key_is_the_least_image():
    rows = np.array(build_ball(make_group("H3"), 8).elements, dtype=np.int64)
    # and rows far from e, whose coordinates no packed key could hold
    rng = np.random.default_rng(5)
    big = rng.integers(-2 ** 30, 2 ** 30, size=(200, 3))
    for r in (rows, big):
        assert np.array_equal(make_group("H3").orbit_key(r), _h3_least_images(r))
