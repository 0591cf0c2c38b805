import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import nnls

from poscomm import (
    ArctanAffine,
    Constant,
    DerivativeRequiredError,
    FitQualityError,
    FunctionSum,
    Grid,
    MonotonicityError,
    RealFunction,
    ReflectedNegated,
    Sampled,
    Sine,
    StripViolationError,
    TanhAffine,
    TanhMeasure,
    TruncationError,
    UnsupportedVariantError,
    cosh_mollify,
    estimate_decay_rate,
    exp_moment,
    fit_tanh_measure,
    fourier_deriv,
    herglotz_check,
)
from poscomm.functions import _nnls


class TestEval:
    def test_tanh_affine_at_origin(self):
        assert TanhAffine(rate=1.0)(0.0) == 0.0

    def test_sum_without_offset_drops_each_terms_offset(self):
        # a Constant is all offset
        t = np.linspace(-3.0, 3.0, 7)
        s = FunctionSum([TanhAffine(offset=2.0), Constant(5.0)])
        assert np.array_equal(s.without_offset(t), np.tanh(t))
        assert s.without_offset(0.5) == np.tanh(0.5)
        assert Constant(5.0).without_offset(1.0) == 0.0

    def test_tanh_measure_saturates(self):
        m = TanhMeasure([0.0], [1.0], offset=0.0, alpha=np.pi / 2)
        assert m(30.0) == pytest.approx(1.0, abs=1e-12)
        assert m.limits == (-1.0, 1.0)

    def test_tanh_on_imaginary_axis(self):
        # tanh(i y) = i tan(y)
        val = TanhAffine(rate=1.0)(1j * np.pi / 4)
        assert abs(val - 1j * math.tan(math.pi / 4)) < 1e-12
        assert abs(val - 1j) < 1e-12

    def test_real_input_gives_real_output(self):
        v = TanhAffine(rate=2.0, center=0.3)(np.linspace(-4, 4, 17))
        assert v.dtype == np.float64

    def test_conjugate_symmetry(self):
        fns = [TanhAffine(rate=1.3, center=0.4, scale=0.8, offset=0.1),
               ArctanAffine(width=2.0, center=-0.5),
               TanhMeasure([-1.0, 0.5], [0.4, 0.6], offset=0.2, alpha=1.2)]
        zs = np.array([0.3 + 0.5j, -1.2 + 0.9j, 2.0 + 0.2j])
        for fn in fns:
            zs_ok = zs[np.abs(zs.imag) < fn.strip_half_width]
            for z in zs_ok:
                assert abs(fn(np.conj(z)) - np.conj(fn(z))) < 1e-12

    def test_strip_violation(self):
        # arctan has genuine branch points at +-i*width
        with pytest.raises(StripViolationError):
            ArctanAffine(width=2.0)(2.5j)

    def test_meromorphic_entries_evaluate_past_their_strip(self):
        # tanh continues meromorphically; the Herglotz claim stops at the
        # strip but evaluation does not, which is what lets the strip
        # diagnostics falsify an over-claimed width
        v = TanhAffine(rate=2.0)(0.5 + 1.2j)    # beyond pi/4
        assert np.isfinite(v.real) and v.imag < 0

    def test_sampled_rejects_complex(self):
        s = Sampled(np.linspace(-5, 5, 101), np.tanh(np.linspace(-5, 5, 101)))
        with pytest.raises(UnsupportedVariantError):
            s(0.1j)

    def test_monotone_flags(self):
        assert TanhAffine(rate=1.0).monotone
        assert ArctanAffine().monotone
        assert not Sine().monotone
        assert FunctionSum([TanhAffine(rate=np.pi / 2),
                            TanhAffine(rate=np.pi, scale=2.0)]).monotone

    def test_sech2_derivative_past_cosh_overflow(self):
        # cosh(y)**2 overflows past |y| ~ 355: the limit 0, no warning,
        # and the expression is unchanged where it is finite
        t = np.linspace(-300.0, 300.0, 6001)
        fa = TanhAffine(rate=np.pi / 2, center=0.3, scale=0.7)
        fm = TanhMeasure([-1.0, 0.5], [0.4, 0.6], alpha=1.0)
        for fn in (fa, fm):            # rates pi/2: |y| > 390 past |t| = 250
            assert np.all(fn.derivative(t)[np.abs(t) > 250] == 0.0)
            assert fn.derivative(1e4) == 0.0
        y = fa.rate * (t - fa.center)
        ok = np.abs(y) < 350
        assert np.array_equal(fa.derivative(t)[ok],
                              fa.scale * fa.rate / np.cosh(y[ok]) ** 2)

    def test_function_without_derivative_refused(self):
        # f' is never differenced numerically: wherever f' is read, a
        # function that carries none is refused
        class Plain(RealFunction):
            monotone = True
            limits = (-1.0, 1.0)

            def _eval_real(self, t):
                return np.tanh(t)

        with pytest.raises(DerivativeRequiredError):
            fourier_deriv(Plain(), Grid(24.0, 256))
        with pytest.raises(DerivativeRequiredError):
            cosh_mollify(Plain(), 0.3)
        with pytest.raises(DerivativeRequiredError):
            fit_tanh_measure(Plain(), np.pi / 2, np.arange(-3, 3.01, 0.25))

    def test_reflection_is_minus_f_of_minus_t(self):
        fn = TanhAffine(rate=1.3, center=0.4, scale=0.8, offset=0.1)
        r = ReflectedNegated(fn)
        t = np.linspace(-3.0, 3.0, 13)
        assert np.array_equal(r(t), -fn(-t))
        z = np.array([0.3 + 0.5j, -1.2 - 0.4j])
        assert np.array_equal(r(z), -fn(-z))
        assert r(0.7 + 0.2j) == -fn(-0.7 - 0.2j)
        assert r.limits == (-fn.limits[1], -fn.limits[0])

    def test_sine_derivative(self):
        fn = Sine(frequency=2.0, amplitude=0.5, phase=0.3)
        t = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(fn.derivative(t), 0.5 * 2.0 * np.cos(2.0 * t + 0.3))

    def test_constant_continues_as_itself(self):
        c = Constant(2.5)
        z = np.array([0.3 + 0.5j, -1.0 - 4.0j])
        assert np.array_equal(c(z), np.full(2, 2.5 + 0j))
        assert c(1j) == 2.5

    def test_variation_bracket(self):
        assert TanhAffine(rate=1.0, scale=1.5).variation == pytest.approx(3.0)
        m = TanhMeasure([0.0, 1.0], [0.25, 0.5])
        assert m.variation == pytest.approx(2 * m.total_mass)
        assert ArctanAffine(scale=1.0).variation == pytest.approx(np.pi)


class TestTanhMeasure:
    def test_alpha_alpha_hat_product(self):
        m = TanhMeasure([0.0], [1.0], alpha=0.7)
        assert m.alpha * m.alpha_hat == pytest.approx(np.pi / 2, rel=1e-15)

    def test_monotone_on_samples(self):
        m = TanhMeasure([-2.0, 0.0, 1.5], [0.2, 0.5, 0.3], offset=-0.1,
                        alpha=1.1)
        t = np.linspace(-8, 8, 400)
        assert np.all(np.diff(m(t)) > 0)

    def test_rate_underflow_rejected(self):
        # pi/(2 alpha) = 0 at alpha = 1e308: a measure with alpha_hat = 0
        with pytest.raises(ValueError, match="rate"):
            TanhMeasure([0.0], [1.0], alpha=1e308)

    def test_negative_weight_rejected(self):
        from poscomm import SignConstraintError
        with pytest.raises(SignConstraintError):
            TanhMeasure([0.0, 1.0], [0.5, -0.5])

    def test_many_atoms_summed_in_blocks(self):
        # a cosh_mollify output has 3656 atoms; its sums over the atoms
        # agree with the one-shot points x atoms sums they replace
        m = cosh_mollify(TanhAffine(rate=1.0), 0.1)
        x = Grid(24.0, 2048).x
        arg = m.alpha_hat * (x[:, None] - m.locations)
        np.testing.assert_allclose(m.without_offset(x),
                                   np.tanh(arg) @ m.weights,
                                   rtol=0, atol=1e-13)
        with np.errstate(over="ignore"):
            slope = (m.alpha_hat / np.cosh(arg) ** 2) @ m.weights
        np.testing.assert_allclose(m.derivative(x), slope, rtol=0, atol=1e-12)
        z = x[::64] + 0.1j
        zarg = m.alpha_hat * (z[:, None] - m.locations)
        np.testing.assert_allclose(m(z), np.tanh(zarg) @ m.weights,
                                   rtol=0, atol=1e-13)
        # a scalar comes back as a Python scalar of its own kind
        assert type(m(z[3])) is complex and type(m(x[5])) is float
        assert abs(m(z[3]) - m(z)[3]) <= 1e-13

    def test_many_atoms_peak_memory(self):
        # points x atoms broadcasts held 379 MB for this Herglotz check,
        # 479 MB for fhat on the N = 2048 lattice and 180 MB for f' plus
        # the values on the grid
        m = cosh_mollify(TanhAffine(rate=1.0), 0.1)
        grid = Grid(24.0, 2048)
        profile = fourier_deriv(m, grid)
        lattice = grid.dx * np.arange(-(grid.n - 1), grid.n)
        for run in (lambda: herglotz_check(m, np.pi * 0.1 / 2),
                    lambda: profile.real_values(lattice),
                    lambda: (m.derivative(grid.x), m.without_offset(grid.x))):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 ** 20

    def test_clustering(self):
        m = TanhMeasure([-1.0, -0.98, 1.0], [0.3, 0.2, 0.5])
        cl = m.clustered()
        assert len(cl) == 2
        assert cl[0].weight == pytest.approx(0.5)
        assert cl[0].location == pytest.approx((-1.0 * 0.3 - 0.98 * 0.2) / 0.5)


class TestSampled:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["node", "value"])
    def test_nonfinite_samples_rejected(self, where, bad):
        # a NaN node passed the increasing-nodes test (NaN <= 0 is false)
        t = np.linspace(-5.0, 5.0, 101)
        v = np.tanh(t)
        (t if where == "node" else v)[50] = bad
        with pytest.raises(ValueError, match="finite"):
            Sampled(t, v)

    def test_uneven_nodes_derivative_is_second_order(self):
        # graded nodes take np.gradient's second-order rule: halving the
        # spacing cuts the error against tanh' about fourfold
        errors = []
        for n in (201, 401, 801):
            u = np.linspace(-1.0, 1.0, n)
            t = 5.0 * (u + 0.3 * np.sin(np.pi * u))
            h = np.max(np.diff(t))
            s = Sampled(t, np.tanh(t))
            err = np.max(np.abs(s.derivative(t) - 1.0 / np.cosh(t) ** 2))
            assert err < h * h
            errors.append(err)
        assert 3.5 < errors[0] / errors[1] < 4.5
        assert 3.5 < errors[1] / errors[2] < 4.5


class TestCoshMollify:
    def test_step_like_mass_and_alpha(self):
        fn = TanhAffine(rate=10.0)
        m = cosh_mollify(fn, 0.1)
        assert m.alpha == pytest.approx(np.pi / 20, rel=1e-15)
        assert m.total_mass == pytest.approx(1.0, abs=1e-8)

    def test_kernel_unit_mass(self):
        # the mollifier kernel (2 eps)^-1 cosh^-2(t/eps) integrates to one
        for eps in (0.1, 0.5):
            val, _ = quad(lambda t: 0.5 / eps / np.cosh(t / eps) ** 2,
                          -40 * eps, 40 * eps)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_odd_symmetry_preserved(self):
        m = cosh_mollify(TanhAffine(rate=1.0), 0.2)
        assert abs(m(0.0)) < 1e-10

    def test_matches_direct_convolution(self):
        # integration by parts: atomic representation equals phi_eps * f
        eps = 0.3
        fn = TanhAffine(rate=1.0)
        m = cosh_mollify(fn, eps)
        gx, gw = leggauss(400)
        s = 30 * eps * gx
        w = 30 * eps * gw
        kern = 0.5 / eps / np.cosh(s / eps) ** 2
        for t in np.linspace(-3, 3, 13):
            conv = np.sum(w * kern * fn(t - s))
            assert m(t) == pytest.approx(conv, abs=1e-9)

    def test_non_monotone_rejected(self):
        with pytest.raises(MonotonicityError):
            cosh_mollify(Sine(), 0.1)

    def test_undecayed_tail_reported(self):
        with pytest.raises(TruncationError):
            cosh_mollify(ArctanAffine(width=2.0), 0.3)


class TestExpMoment:
    def test_variation_at_b_zero(self):
        fn = TanhAffine(rate=1.0)
        res = exp_moment(fn.derivative, 0.0, window=30.0)
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert not res.diverged

    def test_subcritical_converges_in_window(self):
        fn = TanhAffine(rate=1.0)
        v40 = exp_moment(fn.derivative, 0.9, window=40.0)
        v60 = exp_moment(fn.derivative, 0.9, window=60.0)
        assert not v40.diverged and not v60.diverged
        assert v60.value == pytest.approx(v40.value, rel=1e-3)
        # quadrature oracle for the infinite integral
        oracle = quad(lambda t: np.exp(1.8 * t) / np.cosh(t) ** 2,
                      -80, 80, limit=400)[0]
        assert v60.value == pytest.approx(oracle, rel=1e-4)

    def test_supercritical_flags_divergence(self):
        fn = TanhAffine(rate=1.0)
        for w in (30.0, 40.0, 50.0):
            assert exp_moment(fn.derivative, 1.1, window=w).diverged

    def test_underflowing_derivative_gives_finite_moment(self):
        # f' = 20 sech^2(20 t) underflows to 0 where exp(2 b t) overflows:
        # 0 * inf is not part of the integral; the moment is
        # (pi b/10) / sin(pi b/20) = pi at b = 10
        fn = TanhAffine(rate=20.0)
        res = exp_moment(fn.derivative, 10.0, window=40.0)
        assert res.value == pytest.approx(np.pi, rel=1e-6)
        assert not res.diverged

    def test_underflowing_derivative_flags_divergence(self):
        # 2b = 60 > 40: the integrand grows at the edge of f''s support
        fn = TanhAffine(rate=20.0)
        assert exp_moment(fn.derivative, 30.0, window=40.0).diverged

    def test_overflowing_moment_is_inf_without_warning(self):
        # exp(2 b t) = inf where f' is still positive: the moment is inf
        fn = TanhAffine(rate=1.0)
        res = exp_moment(fn.derivative, 10.0, window=40.0)
        assert res.value == np.inf
        assert res.diverged

    def test_overflowed_edge_counts_as_diverged(self):
        # edge and inner samples both inf: inf > inf is false, and these
        # read as converging; at |b| = 1e308, 2b = inf put inf * 0 = NaN
        # into the weight at t = 0
        fn = TanhAffine(rate=1.0)
        for b in (15.0, 20.0, 25.0, 40.0, -25.0, 1e308, -1e308):
            assert exp_moment(fn.derivative, b, window=40.0) == (np.inf, True)
        for b in (20.0, 40.0):
            assert exp_moment(fn.derivative, b, window=30.0) == (np.inf, True)

    def test_zero_derivative_has_zero_moment(self):
        res = exp_moment(lambda t: np.zeros_like(t), 1.0)
        assert res == (0.0, False)

    def test_negative_derivative_rejected(self):
        with pytest.raises(MonotonicityError):
            exp_moment(lambda t: -np.ones_like(t), 0.0)


class TestDecayRate:
    def test_tanh_rate(self):
        fit = estimate_decay_rate(TanhAffine(rate=1.0).derivative)
        assert fit.rate == pytest.approx(1.0, rel=0.02)
        assert fit.rate * fit.strip == pytest.approx(np.pi / 2, rel=1e-12)

    def test_scaling(self):
        fit = estimate_decay_rate(TanhAffine(rate=2.0).derivative)
        assert fit.rate == pytest.approx(2.0, rel=0.02)

    def test_polynomial_tail_rejected(self):
        with pytest.raises(FitQualityError) as exc:
            estimate_decay_rate(ArctanAffine(width=2.0).derivative)
        assert exc.value.residual > 1e-3


class TestHerglotz:
    def test_tanh_passes_on_its_strip(self):
        rep = herglotz_check(TanhAffine(rate=1.0), np.pi / 2)
        assert rep.passed and rep.min_imag >= 0

    def test_tanh_measure_passes(self):
        m = TanhMeasure([-1.0, 0.3, 2.0], [0.5, 0.1, 0.4], offset=0.3,
                        alpha=0.9)
        rep = herglotz_check(m, m.alpha)
        assert rep.passed

    def test_too_wide_strip_fails(self):
        # tanh(2z) has a pole at Im z = pi/4 inside the claimed strip pi/2
        rep = herglotz_check(TanhAffine(rate=2.0), np.pi / 2)
        assert not rep.passed
        assert rep.min_imag < -1.0

    def test_sign_flip_fails(self):
        locs = [-1.5, 0.0, 1.5]
        wts = [0.4, 0.3, 0.3]
        rate = np.pi / (2 * 1.0)

        def signed_sum(weights):
            return FunctionSum([TanhAffine(rate=rate, center=s, scale=w)
                                for s, w in zip(locs, weights)])

        assert herglotz_check(signed_sum(wts), 1.0).passed
        for i in range(3):
            flipped = list(wts)
            flipped[i] = -flipped[i]
            rep = herglotz_check(signed_sum(flipped), 1.0)
            assert not rep.passed


class TestMeasureFit:
    def test_two_atom_recovery(self):
        fn = TanhMeasure([-1.0, 1.0], [0.5, 0.5], alpha=np.pi / 2)
        atoms = np.arange(-4.0, 4.0 + 0.05, 0.1)
        fit = fit_tanh_measure(fn, np.pi / 2, atoms)
        assert fit.member
        assert fit.residual < 1e-6
        assert len(fit.clusters) == 2
        for atom, (loc, wt) in zip(fit.clusters, [(-1.0, 0.5), (1.0, 0.5)]):
            assert atom.location == pytest.approx(loc, abs=0.05)
            assert atom.weight == pytest.approx(wt, abs=1e-2)

    def test_single_atom_identity(self):
        fn = TanhAffine(rate=1.0)
        fit = fit_tanh_measure(fn, np.pi / 2, np.arange(-3, 3.01, 0.25))
        assert fit.member
        assert len(fit.clusters) == 1
        assert fit.clusters[0].location == pytest.approx(0.0, abs=0.05)
        assert fit.clusters[0].weight == pytest.approx(1.0, abs=1e-2)

    def test_steeper_slope_rejected(self):
        fn = TanhAffine(rate=2.0)
        fit = fit_tanh_measure(fn, np.pi / 2, np.arange(-4, 4.01, 0.1))
        assert not fit.member
        assert fit.residual > 1e-2

    def test_narrow_kernel_design_underflows_quietly(self):
        # alpha = 0.01 puts alpha_hat |t - s| past cosh's overflow on the
        # sample window: the sech^2 column entries are 0, with no warning
        fit = fit_tanh_measure(TanhAffine(rate=1.0), 0.01,
                               np.arange(-4.0, 4.05, 0.1))
        assert np.isfinite(fit.residual)
        assert not fit.member

    def test_conditioning_warning(self):
        fn = TanhAffine(rate=1.0)
        with pytest.warns(UserWarning):
            fit_tanh_measure(fn, np.pi / 2, np.arange(-1, 1.001, 0.05))

    def test_fit_from_raw_samples(self):
        t = np.linspace(-12, 12, 481)
        fn = TanhAffine(rate=1.0)
        fit = fit_tanh_measure(Sampled(t, fn(t)), np.pi / 2,
                               np.arange(-3, 3.01, 0.2))
        assert fit.member
        assert fit.clusters[0].location == pytest.approx(0.0, abs=0.05)

    def test_rate_underflow_rejected(self):
        # pi/(2 alpha) = 0 at alpha = 1e308: 0.1 / alpha_hat divided by 0
        with pytest.raises(ValueError, match="rate"):
            fit_tanh_measure(TanhAffine(rate=1.0), 1e308,
                             np.arange(-4.0, 4.05, 0.1))


@st.composite
def nnls_problems(draw):
    """(a, b) for min ||a w - b|| over w >= 0: a Gaussian design, one with
    all-zero columns, b inside the cone a w0 (w0 >= 0), a rank-deficient
    design, and fit_tanh_measure's sech^2 design on a kernel so narrow
    that cosh overflows (its far columns are 0)."""
    kind = draw(st.sampled_from(
        ["random", "zero-columns", "in-cone", "rank-deficient", "sech2"]))
    m, n = draw(st.integers(2, 40)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if kind == "zero-columns":
        a[:, rng.random(n) < 0.4] = 0.0
    elif kind == "in-cone":
        b = a @ np.where(rng.random(n) < 0.5, rng.uniform(0.1, 2.0, n), 0.0)
    elif kind == "rank-deficient":
        r = draw(st.integers(1, max(1, min(m, n) - 1)))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    elif kind == "sech2":
        rate = draw(st.sampled_from([1.0, 40.0, 157.0]))
        t = np.linspace(-12.0, 12.0, 481)
        with np.errstate(over="ignore"):
            a = rate / np.cosh(rate * (t[:, None]
                                       - np.linspace(-4.0, 4.0, n))) ** 2
        b = rng.uniform(0.0, 1.0) / np.cosh(t) ** 2
    return kind, a, b


class TestNNLS:
    """The Lawson-Hanson solver against scipy.optimize.nnls."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nnls_problems())
    def test_matches_scipy_and_meets_kkt(self, problem):
        kind, a, b = problem
        w, rnorm = _nnls(a, b)
        w_ref, rnorm_ref = nnls(a, b)
        scale = np.linalg.norm(b)
        assert rnorm == pytest.approx(np.linalg.norm(a @ w - b),
                                      abs=1e-14 * scale)
        assert abs(rnorm - rnorm_ref) <= 1e-12 * scale
        # KKT: w >= 0, the gradient a^T (b - a w) <= 0, and = 0 where w > 0
        grad = a.T @ (b - a @ w)
        tol = 1e-10 * np.linalg.norm(a) * scale
        assert np.all(w >= 0)
        assert np.all(grad <= tol)
        assert np.all(np.abs(grad[w > 0]) <= tol)
        if kind == "in-cone":
            assert rnorm <= 1e-10 * scale
        if kind == "zero-columns":
            assert np.all(w[~np.any(a, axis=0)] == 0.0)

    def test_corpus_designs_match_scipy(self):
        # the fit-measure-two-atom and fit-measure-reject-steep designs
        t = np.linspace(-12.0, 12.0, 481)
        atoms = np.arange(-4.0, 4.0 + 0.05, 0.1)
        for fn, alpha in ((TanhMeasure([-1.0, 1.0], [0.5, 0.5]), np.pi / 2),
                          (TanhAffine(rate=2.0), np.pi / 2),
                          (TanhAffine(rate=1.0), 0.01)):
            rate = np.pi / (2 * alpha)
            with np.errstate(over="ignore"):
                a = rate / np.cosh(rate * (t[:, None] - atoms)) ** 2
            b = fn.derivative(t)
            w, rnorm = _nnls(a, b)
            w_ref, rnorm_ref = nnls(a, b)
            assert abs(rnorm - rnorm_ref) <= 1e-12 * np.linalg.norm(b)
            assert np.max(np.abs(w - w_ref)) < 1e-12

    def test_nonpositive_gradient_gives_zero(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w, rnorm = _nnls(a, -np.ones(3))
        assert np.all(w == 0.0)
        assert rnorm == pytest.approx(np.sqrt(3.0), rel=1e-15)
