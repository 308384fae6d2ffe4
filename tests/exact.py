"""Exact rational oracles for small graphs, in the standard library's
``fractions``: the grounded inverse of the Laplacian by Gauss-Jordan
elimination, and from it the transfer impedance ``Pi = sqrt(C) B L^+ B^T
sqrt(C)``.  Every conductance must be the square of a rational, so that
sqrt(C) and Pi are rational too."""

from fractions import Fraction
from math import isqrt


def rational_sqrt(c) -> Fraction:
    """The square root of ``c`` as a Fraction; ``ValueError`` unless it is
    rational."""
    q = Fraction(c)
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise ValueError(f"{c!r} has no rational square root")
    return Fraction(num, den)


def grounded_inverse(graph) -> list[list[Fraction]]:
    """The n x n inverse G of the Laplacian grounded at vertex 0, with a
    zero row and column 0.  The grounded block of a connected graph's
    Laplacian is positive definite, so Gauss-Jordan elimination needs no
    pivoting; a disconnected graph raises ``ZeroDivisionError``."""
    n = graph.n_vertices
    lap = [[Fraction(0)] * n for _ in range(n)]
    for t, h, c in zip(graph.tails.tolist(), graph.heads.tolist(), graph.conductances.tolist()):
        c = Fraction(c)
        lap[t][t] += c
        lap[h][h] += c
        lap[t][h] -= c
        lap[h][t] -= c
    k = n - 1
    # [L_g | I], reduced to [I | L_g^-1]
    rows = [lap[i][1:] + [Fraction(int(i == j)) for j in range(1, n)] for i in range(1, n)]
    for col in range(k):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(k):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [[Fraction(0)] * n] + [[Fraction(0)] + row[k:] for row in rows]


def impedance(graph) -> list[list[Fraction]]:
    """Exact Pi as m rows of Fractions.  G differs from L^+ by ``u 1^T + 1
    v^T``, which cancels from every edge drop, since ``B 1 = 0``."""
    g = grounded_inverse(graph)
    ends = list(zip(graph.tails.tolist(), graph.heads.tolist()))
    root = [rational_sqrt(c) for c in graph.conductances.tolist()]
    drops = [[a - b for a, b in zip(g[t], g[h])] for t, h in ends]  # rows of B G
    return [
        [root[e] * root[f] * (drops[e][t] - drops[e][h]) for f, (t, h) in enumerate(ends)]
        for e in range(len(ends))
    ]
