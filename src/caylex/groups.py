"""Concrete finitely generated groups with a solved word problem.

Three families are shipped: Z^d (free abelian), F_k (free), and the
discrete Heisenberg group H3.  Elements are plain tuples in a canonical
normal form, so equality and hashing are byte-for-byte; their text is
"(a,b,...)", or a word such as "abA" on F_k.  Z^d and H3 also multiply
whole arrays of elements at once (``right_products``), which ball
building uses; F_k needs no products there, since its Cayley graph is a
tree.  Each family keys the orbits of its Cayley graph's automorphisms
that fix e (``orbit_key``), the cells that energy minimization runs on.
Z^d and F_k also give those cells of B_R, with their sizes and slots, in
closed form (``cell_graph``), and |B_R| (``ball_size``), so that a
capacity is solved without building the ball.
"""

from __future__ import annotations

import re
from math import comb, factorial
from operator import add
from typing import Iterable, Optional, Tuple

import numpy as np

Element = Tuple[int, ...]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class UnknownFamilyError(ValueError):
    """Group spec names a family we do not ship."""


def _row_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense ranks of the rows of an int array under a lexicographic sort
    (last column first): equal rows, and only they, share a rank.
    Coordinates are compared column by column, never packed into one key,
    so nothing overflows."""
    order = np.lexsort(rows.T)
    s = rows[order]
    step = np.zeros(len(rows), dtype=np.int64)
    step[1:] = np.any(s[1:] != s[:-1], axis=1)
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step)
    return ranks


class GroupModel:
    """Common interface: identity/multiply/inverse plus a fixed symmetric
    generating set S (identity excluded).  Immutable after construction.
    The text codec "(a,b,...)" is the default; F_k overrides it."""

    name: str
    generators: Tuple[Element, ...]
    inverse_gen_index: Tuple[int, ...]
    central_element: Optional[Element]
    # polynomial growth degree, None for exponential growth
    growth_degree: Optional[int]
    # True when S is a free basis and its inverses: the Cayley graph is a
    # tree, and for g in S the normal form of x g is the tuple x + g unless
    # x ends in g^-1 (then x g is x's parent, one step nearer e)
    tree = False
    # True when the lexicographic order on normal-form tuples is
    # left-invariant: a < b implies g a < g b for every element g
    lex_left_invariant = False

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, x: Element, y: Element) -> Element:
        raise NotImplementedError

    def inverse(self, x: Element) -> Element:
        raise NotImplementedError

    def format_element(self, x: Element) -> str:
        return "(" + ",".join(str(a) for a in x) + ")"

    def parse_element(self, s: str) -> Element:
        body = s.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad {self.name} element: {s!r}")
        parts = body[1:-1].split(",")
        width = len(self.identity())
        if len(parts) != width:
            raise ValueError(f"expected {width} coordinates in {s!r}")
        return tuple(int(p) for p in parts)

    def check_elements(self, elements: Iterable[Element]) -> None:
        """Raise ValueError, naming the group, at the first element that
        does not have this group's normal-form shape."""
        for x in elements:
            if not self._is_element(x):
                raise ValueError(f"{x!r} is not an element of {self.name}")

    def _is_element(self, x) -> bool:
        return isinstance(x, tuple) and len(x) == len(self.identity())

    def right_products(self, rows: np.ndarray) -> np.ndarray:
        """The batched step of ball building: for elements given as the
        int64 rows of an (m, w) array, the (m, |S|, w) array of the
        products x g_j^-1.  This default multiplies element by element;
        families with coordinate arithmetic override it."""
        inv = [self.inverse(g) for g in self.generators]
        mul = self.multiply
        prods = [mul(x, h) for x in map(tuple, rows.tolist()) for h in inv]
        return np.array(prods, dtype=np.int64).reshape(len(rows), len(inv),
                                                       rows.shape[1])

    def orbit_key(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """An (m, k) int key of the elements given as the rows of an (m, w)
        array, equal on two elements of one word length iff some
        automorphism of the Cayley graph that fixes e maps one onto the
        other; balls add the word length (CayleyBall.orbit_ranks).  None:
        no key is known, and each element is its own orbit."""
        return None

    def ball_size(self, radius: int) -> Optional[int]:
        """|B_R| in closed form, or None where the family has none."""
        return None

    def cell_graph(self, radius: int):
        """The cells of B_R in closed form, or None where the family has
        none (the cells then come from a built ball, CayleyBall.cell_graph).

        Returns (word_length, sizes, nbr), arrays over the k cells numbered
        as CayleyBall.orbit_ranks numbers them: by word length, then by
        orbit_key.  sizes counts the vertices of each cell, and row a of
        the (k, |S|) table nbr holds the cells of the slots x g_j^-1 of one
        vertex x of cell a; every vertex of a has the same slots up to
        order.  A slot that leaves B_R holds a number >= k.  So the cells
        of B_r, r < R, are the first k_r cells, those of word length <= r,
        and a slot of theirs leaves B_r iff it holds a number >= k_r."""
        return None

    def __eq__(self, other) -> bool:
        """Same class, same name: make_group(spec) twice gives equal groups."""
        return type(self) is type(other) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self):
        return f"<GroupModel {self.name}>"


class ZdGroup(GroupModel):
    """Z^d with S = {+-e_1, ..., +-e_d}; normal form is the integer vector."""

    lex_left_invariant = True       # left multiplication is a translation

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"Z^d needs d >= 1, got {d}")
        self.d = d
        self.name = f"Z^{d}"
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            gens.append(tuple(e))
            e = [0] * d
            e[i] = -1
            gens.append(tuple(e))
        self.generators = tuple(gens)
        self.inverse_gen_index = tuple(j ^ 1 for j in range(2 * d))
        self.central_element = self.generators[0]
        self.growth_degree = d
        self._inv_rows = -np.array(self.generators, dtype=np.int64)

    def _is_element(self, x):
        return isinstance(x, tuple) and len(x) == self.d

    def right_products(self, rows):
        return rows[:, None, :] + self._inv_rows

    def orbit_key(self, rows):
        # the signed coordinate permutations preserve S
        return np.sort(np.abs(rows), axis=1)

    def ball_size(self, radius):
        # k nonzero coordinates, their signs, and k positive |x_i|, sum <= R
        return sum(2 ** k * comb(self.d, k) * comb(radius, k)
                   for k in range(self.d + 1))

    def cell_graph(self, radius):
        """Cells are the sorted |x|, the tuples a_1 <= ... <= a_d of
        nonnegative ints with sum <= R; the cell of a has d!/prod(run
        length)! 2^(#nonzero) vertices, and the slots of the vertex a go
        to the sorted |a -+ e_i|."""
        d = self.d
        # the tuples, as rows a_d, a_(d-1), ..., each next entry 0, 1, ...
        # up to the last one and to what the sum leaves; then reversed
        a = np.arange(radius + 1)[:, None]
        for _ in range(d - 1):
            reps = np.minimum(a[:, -1], radius - a.sum(axis=1)) + 1
            below = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            a = np.column_stack([np.repeat(a, reps, axis=0), below])
        a = a[:, ::-1]
        k = len(a)
        prods = self.right_products(a).reshape(-1, d)
        # rank cells and slot targets together, each as (orbit_key, |x|):
        # the targets outside B_R have |x| = R + 1 and rank after every cell
        keys = [np.column_stack([self.orbit_key(x), np.abs(x).sum(axis=1)])
                for x in (a, prods)]
        ranks = _row_ranks(np.concatenate(keys))
        cell = ranks[:k]
        nbr = np.empty((k, 2 * d), dtype=np.int64)
        nbr[cell] = ranks[k:].reshape(k, 2 * d)
        run = np.ones(len(a), dtype=np.int64)   # position in its run of equals
        runs = run.copy()                       # prod(run length)!
        for i in range(1, d):
            run = np.where(a[:, i] == a[:, i - 1], run + 1, 1)
            runs *= run
        sizes = np.empty(k, dtype=np.int64)
        sizes[cell] = factorial(d) // runs << np.count_nonzero(a, axis=1)
        word_length = np.empty(k, dtype=np.int64)
        word_length[cell] = keys[0][:, -1]
        return word_length, sizes, nbr

    def identity(self):
        return (0,) * self.d

    def multiply(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inverse(self, x):
        return tuple(-a for a in x)


class FreeGroup(GroupModel):
    """F_k on letters a_1..a_k; normal form is the freely reduced word as a
    tuple of nonzero signed letter indices (-i encodes a_i^-1)."""

    tree = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"F_k needs k >= 1, got {k}")
        if k > len(_LETTERS):
            raise ValueError(f"F_k supports at most {len(_LETTERS)} letters")
        self.k = k
        self.name = f"F_{k}"
        gens = []
        for i in range(1, k + 1):
            gens.append((i,))
            gens.append((-i,))
        self.generators = tuple(gens)
        self.inverse_gen_index = tuple(j ^ 1 for j in range(2 * k))
        # F_1 = Z has its generator central; for k >= 2 the center is trivial
        self.central_element = self.generators[0] if k == 1 else None
        self.growth_degree = 1 if k == 1 else None
        self._letters = frozenset(c for g in gens for c in g)

    def _is_element(self, x):
        return (isinstance(x, tuple) and self._letters.issuperset(x)
                and 0 not in map(add, x, x[1:]))       # freely reduced

    def orbit_key(self, rows):
        # automorphisms of the tree fixing e are transitive on each sphere
        return np.empty((len(rows), 0), dtype=np.int64)

    def ball_size(self, radius):
        if self.k == 1:
            return 2 * radius + 1
        return 1 + self.k * ((2 * self.k - 1) ** radius - 1) // (self.k - 1)

    def cell_graph(self, radius):
        """Cells are the spheres, of 2k(2k-1)^(r-1) vertices for r >= 1;
        a vertex of sphere r >= 1 has one slot into sphere r - 1 and
        2k - 1 into sphere r + 1, and e has 2k into sphere 1."""
        r = np.arange(radius + 1)
        n = 2 * self.k
        sizes = np.array([1] + [n * (n - 1) ** (t - 1) for t in r[1:].tolist()],
                         dtype=np.int64)
        nbr = np.repeat(r[:, None] + 1, n, axis=1)
        nbr[1:, 0] = r[:-1]
        return r, sizes, nbr

    def identity(self):
        return ()

    def multiply(self, x, y):
        word = list(x)
        for c in y:
            if word and word[-1] == -c:
                word.pop()
            else:
                word.append(c)
        return tuple(word)

    def inverse(self, x):
        return tuple(-c for c in reversed(x))

    def format_element(self, x):
        out = []
        for c in x:
            ch = _LETTERS[abs(c) - 1]
            out.append(ch if c > 0 else ch.upper())
        return "".join(out)

    def parse_element(self, s):
        letters = []
        for ch in s.strip():
            i = _LETTERS.find(ch.lower()) + 1
            if i == 0 or i > self.k:
                raise ValueError(f"bad F_{self.k} letter {ch!r}")
            letters.append(i if ch.islower() else -i)
        return self.multiply((), letters)


class HeisenbergGroup(GroupModel):
    """H3(Z) in upper-triangular coordinates (x, y, z), with the group law
    (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y') and S = {a, a^-1, b, b^-1}
    for a = (1,0,0), b = (0,1,0).  The commutator [a,b] = (0,0,1) is a
    central element of infinite order."""

    # (a,b,c)(x,y,z) = (a+x, b+y, c+z+a y) translates x and y, and z too
    # among elements that agree in x and y
    lex_left_invariant = True

    def __init__(self):
        self.name = "H3"
        self.generators = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        self.inverse_gen_index = (1, 0, 3, 2)
        self.central_element = (0, 0, 1)
        self.growth_degree = 4
        self._inv_rows = np.array([self.inverse(g) for g in self.generators],
                                  dtype=np.int64)

    def _is_element(self, x):
        return isinstance(x, tuple) and len(x) == 3

    def right_products(self, rows):
        h = self._inv_rows
        out = rows[:, None, :] + h
        out[:, :, 2] += rows[:, :1] * h[:, 1]      # z gains x * b
        return out

    def orbit_key(self, rows):
        """The least image, in lexicographic order, under the 8 automorphisms
        generated by (x,y,z) -> (sx x, sy y, sx sy z) for signs sx, sy and
        (x,y,z) -> (y, x, xy - z); each maps S onto S.  Images are compared
        column by column, never packed into one key."""
        x, y, z = rows.T
        least = None
        for s in (1, -1):
            for t in (1, -1):
                for image in [(s * x, t * y, s * t * z),
                              (t * y, s * x, s * t * (x * y - z))]:
                    image = np.stack(image, axis=1)
                    if least is None:
                        least = image
                        continue
                    less = np.zeros(len(rows), dtype=bool)
                    for c in (2, 1, 0):
                        less = (image[:, c] < least[:, c]) | (
                            (image[:, c] == least[:, c]) & less)
                    least[less] = image[less]
        return least

    def identity(self):
        return (0, 0, 0)

    def multiply(self, u, v):
        return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1])

    def inverse(self, u):
        return (-u[0], -u[1], u[0] * u[1] - u[2])


_ZD_RE = re.compile(r"^Z\^?(\d+)$", re.IGNORECASE)
_FK_RE = re.compile(r"^F_?(\d+)$", re.IGNORECASE)
_H3_RE = re.compile(r"^H_?3$", re.IGNORECASE)


def make_group(spec: str) -> GroupModel:
    """Build a GroupModel from a spec string: ``Z^d`` (or ``Zd``),
    ``F_k`` (or ``Fk``), or ``H3``."""
    s = spec.strip()
    m = _ZD_RE.match(s)
    if m:
        return ZdGroup(int(m.group(1)))
    m = _FK_RE.match(s)
    if m:
        return FreeGroup(int(m.group(1)))
    if _H3_RE.match(s):
        return HeisenbergGroup()
    raise UnknownFamilyError(f"unknown family: {spec!r}")
