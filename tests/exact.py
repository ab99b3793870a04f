"""Exact p = 2 values on a cell graph, in rational arithmetic.

A cell graph (word_length, sizes, nbr) lists the cells of B_R with the
slots of one vertex of each (GroupModel.cell_graph, CayleyBall.cell_graph).
The cells of B_r are its first k_r cells, and a slot that holds a number
>= k_r leaves B_r.  At p = 2 the cell system has integer weights, so with
rational pins its solution and energy are rational.  The harmonic equation
at a free cell a, multiplied by its size n_a, is symmetric, since n_a times
the slots from a into b equals n_b times those from b into a, and positive
definite: Gaussian elimination without pivoting solves it, and with cells
numbered sphere by sphere its fill stays between neighbouring spheres.
"""

from fractions import Fraction


def cells_of_ball(graph, R):
    """k_R: the number of cells of word length <= R."""
    return sum(1 for t in graph[0].tolist() if t <= R)


def harmonic(graph, k, pins, zero):
    """The exact values on the first k cells that take the given values
    (cell -> Fraction) at the pinned cells and are harmonic elsewhere: the
    mean of the slots of each free cell, counting a slot out of B_r as 0
    under the 'zero' convention and dropping it otherwise."""
    _, sizes, nbr = graph
    sizes, nbr = sizes.tolist(), nbr[:k].tolist()
    free = [a for a in range(k) if a not in pins]
    at = {a: i for i, a in enumerate(free)}
    rows, rhs = [], []
    for a in free:
        n, row, b_a = sizes[a], {}, Fraction(0)
        for b in nbr[a]:
            if b >= k and not zero:
                continue
            row[at[a]] = row.get(at[a], 0) + n
            if b in at:
                row[at[b]] = row.get(at[b], 0) - n
            elif b in pins:
                b_a += n * pins[b]
        rows.append(row)
        rhs.append(b_a)
    for i, row in enumerate(rows):
        pivot = Fraction(row[i])
        for r in [c for c in row if c > i]:
            f = rows[r].pop(i) / pivot
            for c, v in row.items():
                if c > i:
                    rows[r][c] = rows[r].get(c, 0) - f * v
            rhs[r] -= f * rhs[i]
    x = [Fraction(0)] * len(free)
    for i in reversed(range(len(free))):
        s = rhs[i] - sum(v * x[c] for c, v in rows[i].items() if c > i)
        x[i] = s / rows[i][i]
    values = dict(pins)
    values.update(zip(free, x))
    return [values[a] for a in range(k)]


def energy(graph, k, values, zero):
    """The p = 2 energy of cell values on the first k cells: each slot of
    a cell's vertices once per direction, each slot out of B_r twice under
    the 'zero' convention, as funcspace.energy_value sums it."""
    _, sizes, nbr = graph
    sizes, nbr = sizes.tolist(), nbr[:k].tolist()
    total = Fraction(0)
    for a in range(k):
        for b in nbr[a]:
            if b < k:
                total += sizes[a] * (values[b] - values[a]) ** 2
            elif zero:
                total += 2 * sizes[a] * values[a] ** 2
    return total


def capacity(graph, R):
    """The exact p = 2 capacity of B_R: e pinned to 1, sphere R and the
    exterior to 0."""
    k = cells_of_ball(graph, R)
    pins = {a: Fraction(0) for a in range(k) if graph[0][a] == R}
    pins[0] = Fraction(1)
    return energy(graph, k, harmonic(graph, k, pins, True), True)
