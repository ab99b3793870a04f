"""Indexed word-metric balls of a Cayley graph, expanded sphere by sphere
with array arithmetic, and indexed windows around finite seed sets.

Vertex 0 of a ball is the identity; vertices are indexed in BFS discovery
order with the generator index as tie-break, so two builds of the same ball
are identical and B_r is the index prefix of B_R (CayleyBall.restrict).
The neighbor table stores, for vertex i and generator index j, the index
of x_i * g_j^-1, or EXTERIOR when that element lies outside the ball.  A
window stores a seed set, with or without its 1-step S-closure, in the
same format.  A ball keeps its elements as arrays and builds the element
tuples, the element -> index dict and its cells (orbit_ranks: the orbits
under the automorphisms fixing e) only when they are first read.  Its
cell graph (CayleyBall.cell_graph) is what every cell solve runs on;
where the family knows the cells in closed form (GroupModel.cell_graph),
cell_graph gives the same graph without a ball, so values on the cells
lift onto a ball as values[ball.orbit_ranks].
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import FrozenSet, Iterable, Set

import numpy as np

from .groups import Element, GroupModel, _row_ranks

EXTERIOR = -1

# Measured on F_2 R = 12 (1,062,881 vertices, |S| = 4, CPython 3.11, numpy
# 2.4): a ball keeps 57 bytes per vertex (neighbor table 32, word length 8,
# interior mask 1, tree links 16) and building it peaks at about 102 bytes
# per vertex, so `caylex ball --group F_2 --radius 12` peaks at 163 MB RSS,
# 60 MB of it the interpreter with numpy and scipy.  Reading ``elements``
# adds about 235 bytes per vertex for these words.  At the cap a build
# stays near 0.5 GB (|S| = 4); the cap is left at 5e6.
DEFAULT_MAX_VERTICES = 5_000_000
MAX_VERTICES_ENV = "CAYLEX_MAX_VERTICES"

# Window seed rows are int64 for right_products; with every coordinate
# below 2^62 in absolute value no product x g^-1 of Z^d or H3 overflows.
COORD_LIMIT = 1 << 62


class BallSizeError(RuntimeError):
    """The requested ball exceeds the vertex cap."""


def _cap_error(group: GroupModel, radius: int, cap: int) -> BallSizeError:
    return BallSizeError(f"ball {group.name} R={radius} exceeds vertex cap "
                         f"{cap}; lower R or raise {MAX_VERTICES_ENV}")


def _vertex_cap(explicit=None) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_VERTICES_ENV)
    if not env:
        return DEFAULT_MAX_VERTICES
    if not env.strip().isdigit() or int(env) < 1:
        raise ValueError(f"{MAX_VERTICES_ENV} must be a positive integer, "
                         f"got {env!r}")
    return int(env)


class CayleyBall:
    """The ball B_R of (G, S), with neighbor table, word lengths, the
    interior {|x| < R}, and per-radius sphere sizes.

    ``elements`` (index -> Element) and ``index`` (Element -> index) may be
    given, or left None with ``decode_sphere`` returning the sphere_rows of
    one sphere; either way they are built on first read and then cached.
    ``nbr`` is the table or a function that returns it on first read, and
    so is ``ranks``, the orbit_ranks; None makes each vertex its own cell."""

    def __init__(self, group: GroupModel, radius: int, elements, index,
                 nbr, word_length: np.ndarray, decode_sphere=None, ranks=None):
        self.group = group
        self.radius = radius
        self._elements = elements
        self._index = index
        self._decode_sphere = decode_sphere
        self._nbr = nbr
        self._ranks = ranks
        self._cells = None
        self.word_length = word_length    # (n,) int array
        self.interior = word_length < radius if radius > 0 else word_length < 0
        counts = np.bincount(word_length, minlength=radius + 1)
        self.sphere_sizes = counts.tolist()

    @property
    def nbr(self) -> np.ndarray:
        """(n, |S|) int array, EXTERIOR marks."""
        if not isinstance(self._nbr, np.ndarray):
            self._nbr = self._nbr()
        return self._nbr

    @property
    def orbit_ranks(self) -> np.ndarray:
        """(n,) int array: the cell of each vertex, numbered by word length
        and then by GroupModel.orbit_key, as GroupModel.cell_graph numbers
        its cells.  Vertices share a cell iff they share word length and
        orbit key; each is its own cell if the group has no key."""
        if self._ranks is None:
            self._ranks = np.arange(self.n_vertices)
        elif not isinstance(self._ranks, np.ndarray):
            self._ranks = self._ranks()
        return self._ranks

    def cell_graph(self):
        """The cells orbit_ranks in GroupModel.cell_graph's format,
        (word_length, sizes, nbr) over the k cells: row a of nbr holds the
        cells of the slots of the first vertex of cell a, k for EXTERIOR.
        Built on the first call and then cached."""
        if self._cells is None:
            ranks = self.orbit_ranks
            first = np.unique(ranks, return_index=True)[1]
            nbr, k = self.nbr[first], len(first)
            self._cells = (self.word_length[first],
                           np.bincount(ranks, minlength=k),
                           np.where(nbr == EXTERIOR, k, ranks[nbr]))
        return self._cells

    @property
    def elements(self):
        if self._elements is None:
            self._elements = [x for r, m in enumerate(self.sphere_sizes) if m
                              for x in _tuples(self._decode_sphere(r))]
            self._decode_sphere = None
        return self._elements

    def sphere_rows(self, r: int) -> np.ndarray:
        """Sphere r's elements in index order as the rows of an int array,
        maybe the ball's own: coordinates, or on a tree group the r letters
        of each word.  While ``elements`` is unread, only r is decoded."""
        indices = self.sphere_indices(r)
        if self._elements is None and len(indices):
            return self._decode_sphere(r)
        x = [self._elements[i] for i in indices]
        return np.array(x, dtype=np.int64).reshape(len(x), -1 if x else 0)

    @property
    def index(self):
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.elements)}
        return self._index

    @property
    def n_vertices(self) -> int:
        return len(self.word_length)

    def restrict(self, r: int) -> "CayleyBall":
        """B_r = build_ball(group, r): the first sum(sphere_sizes[:r + 1])
        vertices, with the slots that leave them EXTERIOR.  It shares the
        element list, if read, or else the sphere decoder, and reads its
        orbit_ranks as the prefix of this ball's;
        restrict(radius) is the ball itself."""
        if not 0 <= r <= self.radius:
            raise ValueError(f"restrict needs 0 <= r <= {self.radius}, got {r}")
        if r == self.radius:
            return self
        n = sum(self.sphere_sizes[:r + 1])
        nbr = np.where(self.nbr[:n] < n, self.nbr[:n], EXTERIOR)
        elements = None if self._elements is None else self._elements[:n]
        return CayleyBall(self.group, r, elements, None, nbr,
                          self.word_length[:n], self._decode_sphere,
                          lambda: self.orbit_ranks[:n])

    def interior_indices(self) -> np.ndarray:
        return np.where(self.interior)[0]

    def sphere_indices(self, r: int) -> np.ndarray:
        return np.where(self.word_length == r)[0]

    def __repr__(self):
        return (f"<CayleyBall {self.group.name} R={self.radius} "
                f"n={self.n_vertices}>")


def _lookup_sphere(group, spheres, starts, r):
    """Neighbor rows of sphere r by lookup.  Each product x g_j^-1 lies in
    sphere r - 1, r or r + 1; it is found among the rows of spheres r - 1
    and r, and the rest are the new sphere, deduplicated and ordered by
    first occurrence in (vertex, generator) order."""
    m = len(spheres[r])
    prods = group.right_products(spheres[r]).reshape(m * len(group.generators), -1)
    lo = max(r - 1, 0)
    known = np.concatenate(spheres[lo:r + 1])
    ranks = _row_ranks(np.concatenate([known, prods]))
    index_of = np.full(len(ranks), EXTERIOR, dtype=np.int64)
    index_of[ranks[:len(known)]] = np.arange(starts[lo], starts[r + 1])
    ranks = ranks[len(known):]
    slots = index_of[ranks]
    unknown = np.flatnonzero(slots == EXTERIOR)
    first = np.sort(np.unique(ranks[unknown], return_index=True)[1])
    new = unknown[first]

    def assign():
        index_of[ranks[new]] = starts[r + 1] + np.arange(len(new))
        slots[unknown] = index_of[ranks[unknown]]
        return prods[new]

    return slots.reshape(m, -1), len(new), assign


def _tree_sphere(group, spheres, starts, r):
    """Neighbor rows of sphere r in a tree.  A vertex is stored as (parent,
    slot) with x = x_parent g_slot^-1; its only neighbor nearer e is the
    parent, across the inverse slot, and every other product is new."""
    parent, slot = spheres[r].T
    nbr = np.full((len(parent), len(group.generators)), EXTERIOR, dtype=np.int64)
    fresh = np.ones(nbr.shape, dtype=bool)
    rows = np.flatnonzero(parent != EXTERIOR)      # all but the identity
    back = np.asarray(group.inverse_gen_index)[slot[rows]]
    nbr[rows, back] = parent[rows]
    fresh[rows, back] = False
    n_new = nbr.size - len(rows)

    def assign():
        nbr[fresh] = starts[r + 1] + np.arange(n_new)
        i, j = np.nonzero(fresh)
        return np.stack([starts[r] + i, j], axis=1)

    return nbr, n_new, assign


def _orbit_ranks(group, spheres, word_length):
    """orbit_ranks of a ball from its sphere rows: the ranks of (group.
    orbit_key, word length), or each vertex its own cell without a key."""
    key = group.orbit_key(np.concatenate(spheres))
    if key is None:
        return np.arange(len(word_length))
    return _row_ranks(np.column_stack([key, word_length]))


def _tuples(rows: np.ndarray):
    """The rows of a 2-d int array as tuples of Python ints."""
    return list(zip(*rows.T.tolist())) if rows.shape[1] else [()] * len(rows)


def _lookup_rows(group, spheres, r):
    return spheres[r]


def _tree_rows(group, spheres, r):
    """The (m, r) letters of sphere r from (parent, slot) pairs: x =
    x_parent + g_slot^-1, so the last of the r letters is that of g_slot^-1
    and the rest are the parent's, read by walking the links back to e."""
    links = np.concatenate(spheres[:r + 1])
    letters = np.array([group.generators[k][0] for k in group.inverse_gen_index])
    parent, letter = links[:, 0], letters[links[:, 1]]
    words = np.empty((r, len(spheres[r])), dtype=np.int64)
    at = np.arange(len(links) - len(spheres[r]), len(links))
    for k in range(r - 1, -1, -1):
        words[k] = letter[at]
        at = parent[at]
    return words.T


def build_ball(group: GroupModel, radius: int, max_vertices=None) -> CayleyBall:
    """B_R from the identity, one sphere at a time.

    Sphere r + 1 is the set of products x g_j^-1 (x in sphere r) that lie
    in no earlier sphere, taken in (x, j) order, so indices, neighbor
    table and word lengths are those of a BFS with generator tie-break.
    Lookup groups find products among the rows that group.right_products
    returns; tree groups (group.tree) need no lookup.  The vertex cap is
    checked before a sphere is allocated.  Elements are built on first
    read of ``elements`` or ``index``, one sphere's rows on a read of
    ``sphere_rows``, and cells on first read of ``orbit_ranks``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = _vertex_cap(max_vertices)
    if group.tree:
        expand, decode = _tree_sphere, _tree_rows
        sphere = np.array([[EXTERIOR, EXTERIOR]])
    else:
        expand, decode = _lookup_sphere, _lookup_rows
        sphere = np.array([group.identity()], dtype=np.int64)
    spheres, starts, blocks = [sphere], [0, 1], []
    for r in range(radius + 1):
        # sphere r's neighbor rows, the size of sphere r + 1, and assign(),
        # which numbers sphere r + 1 in those rows and returns its rows
        nbr, n_new, assign = expand(group, spheres, starts, r)
        blocks.append(nbr)
        if r == radius or n_new == 0:
            break
        if starts[-1] + n_new > cap:
            raise _cap_error(group, radius, cap)
        spheres.append(assign())
        starts.append(starts[-1] + n_new)
    word_length = np.repeat(np.arange(len(blocks)), np.diff(starts))
    return CayleyBall(group, radius, None, None, np.concatenate(blocks),
                      word_length, partial(decode, group, spheres),
                      partial(_orbit_ranks, group, spheres, word_length))


def check_ball_size(group: GroupModel, radius: int):
    """|B_R|, group.ball_size(radius), or None where the family has no
    closed form; a ball past the vertex cap raises BallSizeError, as
    build_ball would, before anything is built, and before any |B_r| for r
    past twice the first radius 1, 2, 4, ... whose ball passes the cap."""
    if group.ball_size(0) is None:
        return None
    cap, r = _vertex_cap(), 1
    while r < radius and group.ball_size(r) <= cap:
        r *= 2
    if r < radius or group.ball_size(radius) > cap:
        raise _cap_error(group, radius, cap)
    return group.ball_size(radius)


def cell_graph(group: GroupModel, radius: int):
    """The cells of B_R in closed form, group.cell_graph(radius), or None
    where the family has none.  |B_R| is checked against the vertex cap
    first (check_ball_size)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if check_ball_size(group, radius) is None:
        return None
    return group.cell_graph(radius)


def _seed_products(group: GroupModel, seeds) -> list:
    """x g_j^-1 for every seed x and generator j, in (seed, generator)
    order: one group.right_products call on the seed rows, or one multiply
    per product on a tree group, whose words have no fixed width."""
    if group.tree:
        gens, mul = group.generators, group.multiply
        return [mul(x, gens[k]) for x in seeds for k in group.inverse_gen_index]
    width = len(group.identity())
    try:
        rows = np.array(seeds, dtype=np.int64).reshape(-1, width)
        ok = not rows.size or -COORD_LIMIT < rows.min() <= rows.max() < COORD_LIMIT
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{group.name} window seeds need coordinates "
                         f"below 2^62 in absolute value")
    return _tuples(group.right_products(rows).reshape(-1, width))


def window(group: GroupModel, seeds: Iterable[Element], closure: bool) -> CayleyBall:
    """The seed set, with its 1-step S-closure if ``closure``, in the
    CayleyBall format.  Seeds come first (given order, repeats dropped)
    with word length 0, then the closure elements x g^-1 in discovery
    order with word length 1, so the interior is the seed set.  A slot to
    a neighbor outside the window is EXTERIOR: on the seeds alone, a
    neighbor off the seeds.  Seed rows come from _seed_products, on first
    read of nbr without the closure.  Closure rows are the transpose of
    the seed rows: y = x g_j^-1 has x = y g_k^-1 for k the index of
    g_j^-1, so no further products are made.  Every function supported on
    the seeds has exact differences, Laplacian and pairings on the
    closure.  Seeds of the wrong shape raise ValueError."""
    index = {x: i for i, x in enumerate(dict.fromkeys(seeds))}
    group.check_elements(index)
    seeds = list(index)
    n_seeds, n_gens = len(seeds), len(group.generators)

    def seed_rows(prods):
        return np.array([index.get(y, EXTERIOR) for y in prods],
                        dtype=np.int64).reshape(n_seeds, n_gens)

    if not closure:
        # pointwise operators never read the table; products wait for a read
        return CayleyBall(group, 1, seeds, index,
                          lambda: seed_rows(_seed_products(group, seeds)),
                          np.zeros(n_seeds, dtype=np.int64))
    prods = _seed_products(group, seeds)
    for y in prods:
        index.setdefault(y, len(index))
    nbr = np.full((len(index), n_gens), EXTERIOR, dtype=np.int64)
    nbr[:n_seeds] = seed_rows(prods)
    i, j = np.nonzero(nbr[:n_seeds] >= n_seeds)
    nbr[nbr[i, j], np.asarray(group.inverse_gen_index)[j]] = i
    word_length = np.zeros(len(index), dtype=np.int64)
    word_length[n_seeds:] = 1
    return CayleyBall(group, 1, list(index), index, nbr, word_length)


def edge_arrays(nbr: np.ndarray, k: int):
    """The slots of the first k rows of a neighbor table (of a ball, k =
    |B_r| for its prefix B_r, or of a cell graph) in (row, slot) order:
    the pairs (src, dst) that stay in those rows, and the sources ext of
    those that leave them, holding EXTERIOR or an index >= k."""
    src = np.repeat(np.arange(k), nbr.shape[1])
    dst = nbr[:k].ravel()
    inside = (dst != EXTERIOR) & (dst < k)
    return src[inside], dst[inside], src[~inside]


@dataclass(frozen=True)
class SubsetView:
    """A finite subset of a ball's vertices, as a boolean mask."""

    ball: CayleyBall
    mask: np.ndarray

    @classmethod
    def from_indices(cls, ball: CayleyBall, indices: Iterable[int]) -> "SubsetView":
        mask = np.zeros(ball.n_vertices, dtype=bool)
        for i in indices:
            mask[i] = True
        return cls(ball, mask)

    def indices(self) -> np.ndarray:
        return np.where(self.mask)[0]

    def element_set(self) -> FrozenSet[Element]:
        return frozenset(self.ball.elements[i] for i in self.indices())

    def __len__(self) -> int:
        return int(self.mask.sum())


def vertex_boundary(ball: CayleyBall, subset: SubsetView) -> SubsetView:
    """The vertex boundary {x in A : some xg with g in S lies outside A}.

    Neighbors outside the stored ball are outside A a fortiori (A is a set
    of ball vertices), so EXTERIOR markers count as exits.  Since S is
    symmetric, the x*g_j^-1 table covers all S-neighbors.
    """
    mask = subset.mask
    nbr = ball.nbr
    exterior = nbr == EXTERIOR
    # in-A status of each neighbor; exterior slots count as not-in-A
    nbr_in = np.where(exterior, False, mask[np.clip(nbr, 0, None)])
    exits = (~nbr_in).any(axis=1)
    return SubsetView(ball, mask & exits)


def vertex_boundary_elements(group: GroupModel, A: Set[Element]) -> Set[Element]:
    """Vertex boundary of an explicit element set: vertex_boundary on the
    window of A alone, where every slot that leaves A is EXTERIOR."""
    win = window(group, A, False)
    every = SubsetView(win, np.ones(win.n_vertices, dtype=bool))
    return set(vertex_boundary(win, every).element_set())
