"""The transfer impedance against the exact rational oracle of
``tests/exact.py``, on small random multigraphs whose conductances are
squares of rationals."""

from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmgraph import ABS_ZERO_TOL, TransferImpedance

from conftest import multigraphs
from exact import impedance, rational_sqrt

# (k/2)^2 for k = 1, 2, 3, 4, 6: conductances 1/4, 1, 9/4, 4 and 9
SQUARES = st.sampled_from([(k / 2) ** 2 for k in (1, 2, 3, 4, 6)])


def test_oracle_refuses_an_irrational_root():
    assert rational_sqrt(2.25) == rational_sqrt(9) / 2
    with pytest.raises(ValueError, match="no rational square root"):
        rational_sqrt(2.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=multigraphs(SQUARES))
def test_exact_impedance_is_a_projection_of_trace_n_minus_1(g):
    exact = impedance(g)
    m = g.n_edges
    assert all(exact[e][f] == exact[f][e] for e in range(m) for f in range(e))
    assert sum(exact[e][e] for e in range(m)) == g.n_vertices - 1
    # Pi^2 = Pi in integers: with d the common denominator, (d Pi)^2 = d (d Pi)
    d = lcm(*(x.denominator for row in exact for x in row))
    scaled = np.array([[x.numerator * (d // x.denominator) for x in row] for row in exact], dtype=object)
    assert np.array_equal(scaled @ scaled, d * scaled)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=multigraphs(SQUARES))
def test_impedance_matches_exact(g):
    exact = impedance(g)
    n, m = g.n_vertices, g.n_edges
    zero = np.array([[x == 0 for x in row] for row in exact])
    exact = np.array(exact, dtype=float)
    for mode in ("dense", "streaming"):
        tp = TransferImpedance(g, mode=mode)
        pi = tp.column_block(0, m)
        assert np.abs(pi - exact).max() <= 1e-12, mode
        # ABS_ZERO_TOL zeroes exactly the exact zeros
        assert np.array_equal(np.abs(pi) < ABS_ZERO_TOL, zero), mode
        assert abs(tp.per_edge_stats()[2].sum() - (n - 1)) <= 1e-12 * n, mode
