"""p = 2 capacities and Royden energies against their exact rational
values, and every capacity against the radial upper bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

import exact
from caylex import cayley
from caylex.cayley import build_ball
from caylex.dirichlet import parabolicity_scan, royden_split
from caylex.groups import make_group


def graph_of(group, R):
    """The cell graph of B_R that the solver takes: the closed form, or the
    built ball's."""
    return cayley.cell_graph(group, R) or build_ball(group, R).cell_graph()


def ulps(x: float, value: Fraction) -> Fraction:
    """|x - value| in units of the spacing of floats at value."""
    return abs(Fraction(x) - value) / Fraction(math.ulp(float(value)))


def test_exact_capacities_match_known_values():
    """Hand-checked values, and the closed forms 4/R on Z^1 and
    2 / sum_{r<R} 1/N_r on F_k, where N_r = 2k (2k-1)^r edges join
    sphere r to sphere r + 1."""
    known = {("Z^2", 4): Fraction(119, 26), ("Z^3", 4): Fraction(637, 71),
             ("F_2", 6): Fraction(486, 91), ("H3", 3): Fraction(72, 13),
             ("H3", 4): Fraction(27, 5)}
    for (spec, R), value in known.items():
        assert exact.capacity(graph_of(make_group(spec), R), R) == value
    for R in (1, 2, 7):
        assert exact.capacity(graph_of(make_group("Z^1"), R), R) == Fraction(4, R)
    for k in (1, 2, 3):
        graph = graph_of(make_group(f"F_{k}"), 6)
        for R in range(1, 7):
            series = sum(Fraction(1, 2 * k * (2 * k - 1) ** r) for r in range(R))
            assert exact.capacity(graph, R) == 2 / series


# The largest distance measured from the exact value, in ulps, over
# R = 1..R_max: Z^2 1.60 (R = 6), Z^3 1.33 (R = 3), F_2 1.64 (R = 6),
# F_3 0.94 (R = 6), H3 0.998 (R = 5).  Every H3 capacity is one of the two
# floats around its exact value.
ULP_BUDGETS = [("Z^2", 16, 2), ("Z^3", 8, 2), ("F_2", 8, 2), ("F_3", 8, 1),
               ("H3", 8, 1)]


@pytest.mark.parametrize("spec,R_max,budget", ULP_BUDGETS)
def test_p2_capacities_within_an_ulp_budget_of_exact(spec, R_max, budget):
    group = make_group(spec)
    graph = graph_of(group, R_max)
    scan = parabolicity_scan(group, 2.0, range(1, R_max + 1))
    for R, cap in zip(scan.radii, scan.capacities):
        assert ulps(cap, exact.capacity(graph, R)) <= budget, R


def test_h3_r4_capacity_is_the_float_nearest_27_5():
    group = make_group("H3")
    assert parabolicity_scan(group, 2.0, [4]).capacities == [5.4]


@pytest.mark.parametrize("spec,R_max", [("Z^2", 16), ("Z^3", 11)])
def test_green_like_royden_energies_within_4_ulps_of_exact(spec, R_max):
    """The harmonic extension of the green-like source 1 / max(1, |x|_inf)
    from sphere R, a rational pin on each cell of sphere R."""
    group = make_group(spec)
    ball = build_ball(group, R_max)
    graph = ball.cell_graph()
    first = np.unique(ball.orbit_ranks, return_index=True)[1]
    report = royden_split(group, "green-like", range(2, R_max + 1))
    for entry in report.entries:
        R = entry.radius
        k = exact.cells_of_ball(graph, R)
        pins = {a: Fraction(1, max(1, max(map(abs, ball.elements[first[a]]))))
                for a in range(k) if graph[0][a] == R}
        value = exact.energy(graph, k, exact.harmonic(graph, k, pins, False),
                             False)
        assert ulps(entry.energy, value) <= 4, R


def radial_bound(graph, R: int, p: float) -> float:
    """2 (sum_{r<R} M_r^(-1/(p-1)))^(1-p), M_r the edges from sphere r to
    sphere r + 1: the energy of the best test function of word length
    alone, so an upper bound on cap_p(R)."""
    word_length, sizes, nbr = graph
    inner = np.minimum(nbr, len(sizes) - 1)    # slots past B_R never count
    M = [int(sizes[word_length == r]
             @ (word_length[inner[word_length == r]] == r + 1).sum(axis=1))
         for r in range(R)]
    return 2.0 * sum(m ** (-1.0 / (p - 1.0)) for m in M) ** (1.0 - p)


@pytest.mark.parametrize("spec,R_max", [("Z^2", 16), ("Z^3", 8), ("H3", 6),
                                        ("F_1", 8), ("F_2", 8), ("F_3", 5)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_capacity_is_at_most_the_radial_bound(spec, R_max, p):
    """cap_p(R) <= the radial bound, within 1e-12 relative; on the tree F_k
    the radial minimizer is the minimizer, so the bound is the closed form
    2 (sum_{r<R} N_r^(-1/(p-1)))^(1-p), N_r = 2k (2k-1)^r, and the
    capacity meets it."""
    group = make_group(spec)
    graph = graph_of(group, R_max)
    scan = parabolicity_scan(group, p, range(1, R_max + 1))
    for R, cap in zip(scan.radii, scan.capacities):
        bound = radial_bound(graph, R, p)
        assert cap <= bound * (1.0 + 1e-12), R
        if spec.startswith("F_"):
            k = len(group.generators) // 2
            series = sum((2 * k * (2 * k - 1) ** r) ** (-1.0 / (p - 1.0))
                         for r in range(R))
            assert bound == pytest.approx(2.0 * series ** (1.0 - p), rel=1e-14)
            assert cap >= bound * (1.0 - 1e-12), R
