import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.fft
from scipy.integrate import quad

from poscomm import (
    ArctanAffine,
    DivergenceError,
    FunctionSum,
    Grid,
    RealFunction,
    ReflectedNegated,
    Sine,
    TanhAffine,
    TanhMeasure,
    TruncationError,
    UnsupportedVariantError,
    fit_exponential_strip,
    fourier_deriv,
    to_momentum,
)
from poscomm.fourier import _fast_len
from poscomm.grids import SQRT_2PI, centered_difference

from conftest import to_position


class TestGrid:
    def test_node_layout(self):
        g = Grid(1.0, 8)
        assert g.dx == pytest.approx(0.25)
        assert g.x[0] == -1.0 and g.x[-1] == pytest.approx(0.75)
        assert np.all(np.diff(g.x) > 0)
        assert np.all(np.diff(g.k) > 0)
        assert g.dk == pytest.approx(np.pi)

    def test_weights_sum_to_window(self):
        for L, n in [(1.0, 8), (24.0, 2048), (16.0, 64)]:
            g = Grid(L, n)
            assert g.n * g.dx == pytest.approx(2 * L, rel=1e-14)

    def test_weights_integrate_sech2(self):
        g = Grid(24.0, 2048)
        val = np.sum(g.dx / np.cosh(g.x) ** 2)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_momentum_spacing(self):
        g = Grid(24.0, 256)
        assert np.allclose(np.diff(g.k), np.pi / 24.0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            Grid(24.0, 4)
        with pytest.raises(ValueError):
            Grid(24.0, 9)
        # 2L = inf made dx = inf and x[0] = NaN; at 8.9e307 2L is finite
        for bad in (-1.0, 1e308, np.nan):
            with pytest.raises(ValueError):
                Grid(bad, 64)
        assert np.all(np.isfinite(Grid(8.9e307, 64).x))


class TestUnitaryTransform:
    def test_round_trip(self):
        g = Grid(12.0, 256)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(g.n)
        back = to_position(g, to_momentum(g, v))
        assert np.max(np.abs(back - v)) < 1e-12

    def test_matches_continuum_on_gaussian(self):
        # hat of exp(-t^2/2) is exp(-k^2/2) in this convention
        g = Grid(16.0, 512)
        hat = to_momentum(g, np.exp(-g.x ** 2 / 2))
        expected = np.exp(-g.k ** 2 / 2)
        assert np.max(np.abs(hat - expected)) < 1e-12

    def test_centered_difference_order(self):
        g = Grid(4.0, 512)
        d = centered_difference(np.sin(g.x), g.dx)
        interior = slice(10, -10)
        assert np.max(np.abs(d[interior] - np.cos(g.x)[interior])) < 1e-8


QUAD_GRID = Grid(24.0, 2048)
QUAD_K = np.linspace(-10, 10, 201)


@functools.cache
def _exp_sum_matrix():
    """Quadrature of (1/sqrt(2 pi)) int h(t) exp(-ikt) dt at QUAD_K."""
    x = QUAD_GRID.x
    return np.exp(-1j * QUAD_K[:, None] * x[None, :]) * QUAD_GRID.dx / SQRT_2PI


# every 16th node of the position-kernel lattice, 0 included: a dense
# reference of affordable size for the 2N-1 lattice values
_QUAD_NODES = np.arange(-(QUAD_GRID.n - 1), QUAD_GRID.n)
QUAD_LATTICE = QUAD_GRID.dx * _QUAD_NODES
QUAD_SUB = _QUAD_NODES % 16 == 0


@functools.cache
def _lattice_exp_sum_matrix():
    """The quadrature of _exp_sum_matrix at the QUAD_SUB lattice nodes."""
    u, x = QUAD_LATTICE[QUAD_SUB], QUAD_GRID.x
    return np.exp(-1j * u[:, None] * x[None, :]) * QUAD_GRID.dx / SQRT_2PI


class _Uncatalogued(RealFunction):
    """fn and its derivative without its catalog type, so that
    fourier_deriv takes the quadrature route."""

    def __init__(self, fn):
        self.fn = fn

    def _eval_real(self, t):
        return self.fn(t)

    def derivative(self, t):
        return self.fn.derivative(t)


_tanh_affines = st.builds(
    TanhAffine, rate=st.floats(0.8, 3.0), center=st.floats(-2.0, 2.0),
    scale=st.floats(0.2, 2.0) | st.floats(-2.0, -0.2),
    offset=st.floats(-1.0, 1.0))


@st.composite
def _tanh_measures(draw):
    n = draw(st.integers(1, 4))
    locs = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    wts = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    return TanhMeasure(locs, wts, alpha=draw(st.floats(0.5, 1.5)))


def _nested(inner):
    return (inner
            | st.lists(inner, min_size=1, max_size=3).map(FunctionSum)
            | inner.map(ReflectedNegated))


# sums and reflections nested to depth 2
closed_forms = _nested(_nested(_tanh_affines | _tanh_measures()))


class TestFourierDeriv:
    def test_tanh_zero_frequency(self, grid_small):
        prof = fourier_deriv(TanhAffine(rate=1.0), grid_small)
        assert prof.route == "closed-form"
        assert complex(prof(0.0)).real == pytest.approx(2 / SQRT_2PI, rel=1e-12)

    # exponential-tail entries only: the quadrature reference needs f'
    # below 1e-12 of its peak at |x| = 24, which a Lorentzian violates and
    # rates below 0.8 or centres past +-2 do not keep either
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(closed_forms)
    @example(TanhAffine(rate=1.0))
    @example(TanhAffine(rate=np.pi / 2, center=1.0, scale=0.7, offset=0.2))
    @example(TanhMeasure([-1.0, 0.5], [0.4, 0.6], alpha=1.2))
    @example(FunctionSum([TanhAffine(rate=np.pi / 2),
                          TanhAffine(rate=np.pi, scale=0.5)]))
    # off-centre reflections: the transform of f'(-t) is fhat(-u), which
    # differs from fhat(u) once f' is not even
    @example(ReflectedNegated(TanhAffine(rate=1.0, center=1.5)))
    @example(ReflectedNegated(TanhMeasure([-1.0, 0.5], [0.4, 0.6],
                                          alpha=1.2)))
    def test_closed_form_vs_fft_route(self, fn):
        closed = fourier_deriv(fn, QUAD_GRID)
        assert closed.route == "closed-form"
        ref = closed.real_values(QUAD_K)
        numeric = _exp_sum_matrix() @ np.asarray(fn.derivative(QUAD_GRID.x))
        assert np.max(np.abs(numeric - ref)) <= 1e-9 * np.max(np.abs(ref))

    # the same family through the quadrature route: the 2N-1 lattice
    # values a kernel route reads come from one chirp convolution
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(closed_forms)
    @example(TanhAffine(rate=np.pi / 2, center=1.0, scale=0.7, offset=0.2))
    @example(ReflectedNegated(TanhMeasure([-1.0, 0.5], [0.4, 0.6],
                                          alpha=1.2)))
    def test_quadrature_lattice_vs_dense_sum_and_closed_form(self, fn):
        prof = fourier_deriv(_Uncatalogued(fn), QUAD_GRID)
        assert prof.route == "fft"
        vals = prof.real_values(QUAD_LATTICE)
        dense = _lattice_exp_sum_matrix() @ np.asarray(
            fn.derivative(QUAD_GRID.x))
        assert np.max(np.abs(vals[QUAD_SUB] - dense)) <= \
            4e-15 * np.max(np.abs(dense))
        ref = fourier_deriv(fn, QUAD_GRID).real_values(QUAD_LATTICE)
        assert np.max(np.abs(vals - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_real_values_of_an_even_derivative_are_real(self):
        # a centred tanh has an even f' and a real transform: float64,
        # so a real profile builds and solves in real arithmetic
        k = np.linspace(-3.0, 3.0, 7)
        centred = fourier_deriv(TanhAffine(rate=1.0), QUAD_GRID)
        assert centred.real_values(k).dtype == np.float64
        assert centred.real_values(0.5).shape == ()
        shifted = fourier_deriv(TanhAffine(rate=1.0, center=1.0), QUAD_GRID)
        assert shifted.real_values(k).dtype == np.complex128

    def test_tanh_rate_profile_past_sinh_overflow(self):
        from poscomm.functions import _tanh_rate_profile
        rate = 0.8
        # x = pi*u/(2*rate) with |Re x| from 1 to 2000, some off the axis
        re = np.linspace(1.0, 2000.0, 4001)
        x = np.concatenate([re, -re]) + 1j * np.resize([0.0, 0.3, -1.7],
                                                       2 * re.size)
        u = 2 * rate * x / np.pi
        got = _tanh_rate_profile(u, rate)
        assert np.all(np.isfinite(got))
        far = np.abs(x.real) >= 700
        assert np.all(got[far] == 0.0)
        # sinh is finite below |Re x| = 700: the expression is unchanged
        near = u[~far]
        assert np.array_equal(
            got[~far], np.pi * near / (rate * np.sinh(np.pi * near
                                                      / (2 * rate))))

    def test_arctan_profile_normalization(self, grid_std):
        # Lorentzian derivative: transform is sqrt(pi/2) exp(-width*|k|);
        # pin the zero-frequency value to the variation bracket and the
        # exponential decay against log-slope fitting
        fn = ArctanAffine(width=2.0)
        prof = fourier_deriv(fn, grid_std)
        assert complex(prof(0.0)).real == pytest.approx(
            np.pi / SQRT_2PI, rel=1e-12)
        k = np.linspace(0.5, 4.0, 8)
        vals = np.abs(prof.real_values(k))
        slope = np.polyfit(k, np.log(vals), 1)[0]
        assert slope == pytest.approx(-2.0, rel=1e-9)

    def test_symmetry_invariants(self, grid_small):
        prof = fourier_deriv(TanhAffine(rate=1.3, center=0.7), grid_small)
        k = np.linspace(0.1, 8, 40)
        vals_p = prof.real_values(k)
        vals_m = prof.real_values(-k)
        assert np.max(np.abs(vals_m - np.conj(vals_p))) < 1e-14
        # centered even derivative -> real even transform
        prof0 = fourier_deriv(TanhAffine(rate=1.3), grid_small)
        v = prof0.real_values(k)
        assert np.max(np.abs(v.imag)) < 1e-14

    def test_complex_argument_against_quadrature(self, grid_std):
        prof = fourier_deriv(TanhAffine(rate=1.0), grid_std)
        val = complex(prof(2j * 0.4))
        oracle = quad(lambda t: np.exp(0.8 * t) / np.cosh(t) ** 2,
                      -60, 60, limit=300)[0] / SQRT_2PI
        assert val.real == pytest.approx(oracle, rel=1e-10)
        assert abs(val.imag) < 1e-12

    def test_complex_argument_outside_moment_region(self, grid_std):
        prof = fourier_deriv(TanhAffine(rate=1.0), grid_std)
        with pytest.raises(DivergenceError):
            prof(2.5j)
        with pytest.raises(DivergenceError):
            fourier_deriv(ArctanAffine(), grid_std)(0.1j)

    def test_fft_route_for_sampled_derivative(self, grid_std):
        from poscomm import Sampled
        x = grid_std.x
        fn = Sampled(x, np.tanh(x))
        prof = fourier_deriv(fn, grid_std)
        assert prof.route == "fft"
        closed = fourier_deriv(TanhAffine(rate=1.0), grid_std)
        k = np.linspace(-8, 8, 81)
        a = prof.real_values(k)
        b = closed.real_values(k)
        # accuracy limited by the 4th-order difference stencil on samples
        assert np.max(np.abs(a - b)) < 1e-5
        mask = np.abs(b) > 1e-2 * np.max(np.abs(b))
        assert np.max(np.abs(a[mask] - b[mask]) / np.abs(b[mask])) < 1e-4

    def test_fft_route_at_a_scalar(self):
        from poscomm import Sampled
        grid = Grid(24.0, 1024)
        prof = fourier_deriv(Sampled(grid.x, np.tanh(grid.x)), grid)
        assert prof.route == "fft"
        assert abs(prof(0.5) - prof.real_values([0.5])[0]) <= 1e-14

    def test_sine_unsupported(self, grid_small):
        with pytest.raises(UnsupportedVariantError):
            fourier_deriv(Sine(), grid_small)

    def test_sine_term_unsupported(self, grid_small):
        # a sum or a reflection with a sine term is refused like a lone
        # sine; the sum used to reach quadrature and fail truncation
        for fn in (FunctionSum([Sine(), TanhAffine(rate=1.0)]),
                   ReflectedNegated(Sine())):
            with pytest.raises(UnsupportedVariantError, match="sine"):
                fourier_deriv(fn, grid_small)

    def test_term_without_closed_form_takes_quadrature(self):
        # one term with no closed form sends the whole sum or reflection
        # to quadrature, which agrees with the closed form of the original
        tanh = TanhAffine(rate=1.0, center=0.5)
        k = np.linspace(-4.0, 4.0, 17)
        for fn, plain in [
                (FunctionSum([TanhAffine(rate=2.0), _Uncatalogued(tanh)]),
                 FunctionSum([TanhAffine(rate=2.0), tanh])),
                (ReflectedNegated(_Uncatalogued(tanh)),
                 ReflectedNegated(tanh))]:
            prof = fourier_deriv(fn, QUAD_GRID)
            assert prof.route == "fft"
            ref = fourier_deriv(plain, QUAD_GRID).real_values(k)
            assert np.max(np.abs(prof.real_values(k) - ref)) <= 1e-9

    def test_own_transform_outside_the_catalog(self):
        # any function that supplies derivative_transform gets a closed
        # form, whatever its class
        class Shifted(_Uncatalogued):
            def derivative_transform(self):
                return self.fn.derivative_transform()

        fn = TanhAffine(rate=1.5, center=0.3)
        prof = fourier_deriv(Shifted(fn), QUAD_GRID)
        assert prof.route == "closed-form"
        assert prof.imag_half_width == 3.0
        k = np.linspace(-4.0, 4.0, 17)
        assert np.array_equal(prof.real_values(k),
                              fourier_deriv(fn, QUAD_GRID).real_values(k))

    def test_undecayed_tail_raises(self):
        from poscomm import Sampled
        g = Grid(4.0, 64)     # tanh not flat at |t|=4 to 1e-12
        fn = Sampled(g.x, np.tanh(g.x))
        with pytest.raises(TruncationError):
            fourier_deriv(fn, g)


class TestStripFit:
    def test_tanh_strip(self, grid_small):
        prof = fourier_deriv(TanhAffine(rate=1.0), grid_small)
        s = fit_exponential_strip(prof)
        assert s == pytest.approx(np.pi / 2, rel=1e-3)

    def test_two_rate_sum_strip_is_narrowest(self, grid_small):
        f = FunctionSum([TanhAffine(rate=np.pi / 2),
                         TanhAffine(rate=np.pi)])
        s = fit_exponential_strip(fourier_deriv(f, grid_small))
        assert s == pytest.approx(0.5, rel=1e-2)


def test_fast_len_is_scipys():
    # the Bluestein length sets nfft, so every profile bit hangs on it
    assert all(_fast_len(n) == scipy.fft.next_fast_len(n)
               for n in range(1, 20001))
