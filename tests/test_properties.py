import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poscomm import (
    ArctanAffine,
    Grid,
    TanhAffine,
    TanhMeasure,
    build_nystrom_p,
    build_nystrom_x,
    catalog,
    compose_pair,
    loewner_matrix,
    rank_one_pair,
    rank_three_example,
    spectrum,
    to_momentum,
)
from conftest import claimed_monotone_entries, dense_spectrum, to_position

LOG_SHIFT = catalog()["log-shift"]
finite_floats = st.floats(-3.0, 3.0, allow_nan=False)
weights_st = st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6)
locs_st = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6)


@st.composite
def tanh_measures(draw):
    n = draw(st.integers(1, 5))
    locs = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n,
                         unique_by=lambda v: round(v, 2)))
    wts = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    offset = draw(st.floats(-1.0, 1.0))
    alpha = draw(st.floats(0.3, 2.0))
    return TanhMeasure(locs, wts, offset=offset, alpha=alpha)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(tanh_measures())
def test_tanh_measure_monotone(m):
    t = np.linspace(-10, 10, 200)
    assert np.all(np.diff(m(t)) >= 0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(tanh_measures(), st.floats(-5, 5), st.floats(0.05, 0.9))
def test_conjugate_symmetry(m, re, frac):
    z = re + 1j * frac * m.alpha
    assert abs(m(np.conj(z)) - np.conj(m(z))) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tanh_measures())
def test_herglotz_on_own_strip(m):
    from poscomm import herglotz_check
    rep = herglotz_check(m, m.alpha)
    assert rep.passed


# a scale of either sign, at least 0.1 in size
scales_st = st.floats(-2.0, 2.0).filter(lambda s: abs(s) >= 0.1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.3, 3.0), st.floats(-2.0, 2.0), scales_st)
def test_tanh_affine_variation(rate, center, scale):
    # limits are (f(-inf), f(+inf)): [f] takes the sign of the scale
    fn = TanhAffine(rate=rate, center=center, scale=scale)
    assert abs(fn.variation - 2 * scale) < 1e-12
    # saturation near the window ends
    assert abs(fn(center + 40.0 / rate) - fn.limits[1]) < 1e-12
    assert abs(fn(center - 40.0 / rate) - fn.limits[0]) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.3, 3.0), st.floats(-2.0, 2.0), scales_st)
def test_arctan_affine_variation(width, center, scale):
    fn = ArctanAffine(width=width, center=center, scale=scale)
    assert abs(fn.variation - np.pi * scale) < 1e-12
    # arctan(1e8) is pi/2 - 1e-8
    far = 1e8 * width
    assert abs(fn(center + far) - fn.limits[1]) < 1e-7
    assert abs(fn(center - far) - fn.limits[0]) < 1e-7


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.3, 3.0), st.floats(0.1, 1.5))
def test_composed_decreasing_inner_variation(rate, scale):
    # log(v + 2) of a decreasing tanh decreases: [F o f] < 0
    inner = TanhAffine(rate=rate, scale=-scale)
    fn = compose_pair(LOG_SHIFT, inner, LOG_SHIFT, inner)[0]
    assert abs(fn.variation - np.log((2.0 - scale) / (2.0 + scale))) < 1e-12
    assert abs(fn(40.0 / rate) - fn(-40.0 / rate) - fn.variation) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(claimed_monotone_entries()),
       st.lists(st.integers(1, 999), min_size=2, max_size=8, unique=True))
def test_loewner_matrix_psd_on_random_nodes(entry, ticks):
    # nodes at least (hi - lo)/1000 apart, so each difference quotient
    # keeps its digits
    lo, hi = entry.test_interval
    nodes = lo + (hi - lo) * np.asarray(ticks) / 1000.0
    eig = np.linalg.eigvalsh(loewner_matrix(entry, nodes))
    assert eig[0] >= -1e-10 * np.max(np.abs(eig))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(4, 8), st.integers(0, 1000))
def test_transform_round_trip(log2n, seed):
    g = Grid(12.0, 2 ** log2n)
    v = np.random.default_rng(seed).standard_normal(g.n)
    assert np.max(np.abs(to_position(g, to_momentum(g, v)) - v)) < 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(0.5, 40.0), st.integers(3, 11))
def test_weights_sum(L, log2n):
    g = Grid(L, 2 ** log2n)
    assert abs(g.n * g.dx - 2 * L) < 1e-10 * L


@st.composite
def finite_rank_pairs(draw):
    """A rank-one pair (complex matrix when t1 != 0) or the rank-three
    example, as (f, g) on its grid."""
    grid = Grid(24.0, draw(st.sampled_from([256, 512])))
    if draw(st.booleans()):
        ex = rank_three_example(draw(st.floats(0.2, 3.0)), grid)
        return ex.f, ex.g, grid
    sign = draw(st.sampled_from([-1.0, 1.0]))
    c1, c2 = (sign * draw(st.floats(0.3, 2.0)) for _ in range(2))
    shifts = (draw(st.floats(-3.0, 3.0)) for _ in range(4))
    return (*rank_one_pair(draw(st.floats(0.5, 2.0)), c1, c2, *shifts), grid)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(finite_rank_pairs(), st.sampled_from([build_nystrom_x,
                                             build_nystrom_p]))
def test_randomized_solve_matches_dense(pair, build):
    op = build(*pair)
    fast = spectrum(op)
    dense = dense_spectrum(op)
    assert fast.solver == "randomized" and dense.solver == "dense"
    # rank 1 or 3 certifies at depth 1: 8 Ritz values
    assert fast.eigenvalues.size == 8
    assert fast.numerical_rank == dense.numerical_rank
    assert fast.sign_pattern() == dense.sign_pattern()
    tol = fast.residual_bound + 1e-13 * np.max(np.abs(dense.eigenvalues))
    assert abs(fast.max_eig - dense.max_eig) <= tol
    assert abs(fast.min_eig - dense.min_eig) <= tol
