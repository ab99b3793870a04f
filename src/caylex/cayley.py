"""Indexed word-metric balls of a Cayley graph, built by BFS, and indexed
windows around finite seed sets.

Vertex 0 of a ball is the identity; vertices are indexed in BFS discovery
order with the generator index as tie-break, so two builds of the same ball
are identical.  The neighbor table stores, for vertex i and generator index
j, the index of x_i * g_j^-1, or EXTERIOR when that element lies outside the
ball.  A window stores a seed set and its 1-step S-closure in the same
format.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Set

import numpy as np

from .groups import Element, GroupModel

EXTERIOR = -1

DEFAULT_MAX_VERTICES = 5_000_000
MAX_VERTICES_ENV = "CAYLEX_MAX_VERTICES"


class BallSizeError(RuntimeError):
    """The requested ball exceeds the vertex cap."""


def _vertex_cap(explicit=None) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_VERTICES_ENV)
    if env:
        return int(env)
    return DEFAULT_MAX_VERTICES


class CayleyBall:
    """The ball B_R of (G, S), with neighbor table, word lengths, the
    interior {|x| < R}, and per-radius sphere sizes."""

    def __init__(self, group: GroupModel, radius: int, elements, index,
                 nbr: np.ndarray, word_length: np.ndarray):
        self.group = group
        self.radius = radius
        self.elements = elements          # list: index -> Element
        self.index = index                # dict: Element -> index
        self.nbr = nbr                    # (n, |S|) int array, EXTERIOR marks
        self.word_length = word_length    # (n,) int array
        self.interior = word_length < radius if radius > 0 else word_length < 0
        counts = np.bincount(word_length, minlength=radius + 1)
        self.sphere_sizes = [int(c) for c in counts]

    @property
    def n_vertices(self) -> int:
        return len(self.elements)

    def neighbor(self, i: int, j: int) -> int:
        """Index of x_i * g_j^-1, or EXTERIOR."""
        return int(self.nbr[i, j])

    def interior_indices(self) -> np.ndarray:
        return np.where(self.interior)[0]

    def sphere_indices(self, r: int) -> np.ndarray:
        return np.where(self.word_length == r)[0]

    def __repr__(self):
        return (f"<CayleyBall {self.group.name} R={self.radius} "
                f"n={self.n_vertices}>")


def build_ball(group: GroupModel, radius: int, max_vertices=None) -> CayleyBall:
    """BFS enumeration of B_R from the identity."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = _vertex_cap(max_vertices)
    gens = group.generators
    inv_gens = [group.inverse(g) for g in gens]
    nS = len(gens)
    e = group.identity()
    elements = [e]
    index = {e: 0}
    wl = [0]
    nbr_rows = []
    mul = group.multiply
    queue = deque([0])
    while queue:
        i = queue.popleft()
        x = elements[i]
        n = wl[i]
        row = np.full(nS, EXTERIOR, dtype=np.int64)
        for j in range(nS):
            y = mul(x, inv_gens[j])
            k = index.get(y)
            if k is None:
                if n < radius:
                    k = len(elements)
                    if k >= cap:
                        raise BallSizeError(
                            f"ball {group.name} R={radius} exceeds vertex cap "
                            f"{cap}; lower R or raise {MAX_VERTICES_ENV}")
                    index[y] = k
                    elements.append(y)
                    wl.append(n + 1)
                    queue.append(k)
                    row[j] = k
                # else: y is at distance R+1, leave EXTERIOR
            else:
                row[j] = k
        nbr_rows.append(row)
    nbr = np.vstack(nbr_rows) if nbr_rows else np.zeros((0, nS), dtype=np.int64)
    return CayleyBall(group, radius, elements, index, nbr,
                      np.array(wl, dtype=np.int64))


def window(group: GroupModel, seeds: Iterable[Element]) -> CayleyBall:
    """The seed set and its 1-step S-closure, in the CayleyBall format.

    Seeds come first (given order, repeats dropped) with word length 0,
    then the new elements x g^-1 in discovery order with word length 1, so
    the window has radius 1, its interior is the seed set and its sphere
    the closure.  Seed rows come from group.multiply.  Closure rows are the
    transpose of the seed rows: y = x g_j^-1 has x = y g_k^-1 for k the
    index of g_j^-1, so no further multiplies are made; a closure row keeps
    EXTERIOR where its neighbor is not a seed.  Every function supported on
    the seeds therefore has exact differences, Laplacian and pairings here.
    """
    index = {x: i for i, x in enumerate(dict.fromkeys(seeds))}
    n_seeds = len(index)
    gens = group.generators
    back = group.inverse_gen_index
    mul = group.multiply
    prods = [mul(x, gens[k]) for x in list(index) for k in back]
    for y in prods:
        index.setdefault(y, len(index))
    elements = list(index)
    seed_rows = np.array([index[y] for y in prods],
                         dtype=np.int64).reshape(n_seeds, len(gens))
    nbr = np.full((len(elements), len(gens)), EXTERIOR, dtype=np.int64)
    nbr[:n_seeds] = seed_rows
    i, j = np.nonzero(seed_rows >= n_seeds)
    nbr[seed_rows[i, j], np.asarray(back)[j]] = i
    word_length = np.zeros(len(elements), dtype=np.int64)
    word_length[n_seeds:] = 1
    return CayleyBall(group, 1, elements, index, nbr, word_length)


def edge_arrays(ball: CayleyBall):
    """Directed in-ball pairs (src, dst) over all (vertex, generator) slots,
    and the sources of exterior-incident slots."""
    nbr = ball.nbr
    n, nS = nbr.shape
    src = np.repeat(np.arange(n), nS)
    dst = nbr.ravel()
    ext = dst == EXTERIOR
    return src[~ext], dst[~ext], src[ext]


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

    @classmethod
    def from_elements(cls, ball: CayleyBall, elems: Iterable[Element]) -> "SubsetView":
        return cls.from_indices(ball, (ball.index[x] for x in elems))

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
    if not mask.any():
        return SubsetView(ball, np.zeros_like(mask))
    nbr = ball.nbr
    exterior = nbr == EXTERIOR
    # in-A status of each neighbor; exterior slots count as not-in-A
    nbr_in = np.where(exterior, False, mask[np.clip(nbr, 0, None)])
    exits = (~nbr_in).any(axis=1)
    return SubsetView(ball, mask & exits)


def vertex_boundary_elements(group: GroupModel, A: Set[Element]) -> Set[Element]:
    """Vertex boundary of an explicit element set: vertex_boundary on the
    window of A, whose seeds (word length 0) are A itself."""
    win = window(group, A)
    seeds = SubsetView(win, win.word_length == 0)
    return set(vertex_boundary(win, seeds).element_set())
