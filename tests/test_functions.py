import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from poscomm import (
    ArctanAffine,
    Constant,
    FitQualityError,
    FunctionSum,
    MonotonicityError,
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
    gaussian_mollify,
    herglotz_check,
)


class TestEval:
    def test_tanh_affine_at_origin(self):
        assert TanhAffine(rate=1.0)(0.0) == 0.0

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

    def test_negative_weight_rejected(self):
        from poscomm import SignConstraintError
        with pytest.raises(SignConstraintError):
            TanhMeasure([0.0, 1.0], [0.5, -0.5])

    def test_clustering(self):
        m = TanhMeasure([-1.0, -0.98, 1.0], [0.3, 0.2, 0.5])
        cl = m.clustered(min_gap=0.2)
        assert len(cl) == 2
        assert cl[0].weight == pytest.approx(0.5)
        assert cl[0].location == pytest.approx((-1.0 * 0.3 - 0.98 * 0.2) / 0.5)


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
            cosh_mollify(ArctanAffine(width=2.0), 0.3, window=24.0)


class TestGaussianMollify:
    def test_constant_fixed_point(self):
        sm = gaussian_mollify(Constant(1.0), 0.5)
        assert sm(0.37) == pytest.approx(1.0, abs=1e-12)
        assert sm(-11.0) == pytest.approx(1.0, abs=1e-12)

    def test_odd_symmetry(self):
        sm = gaussian_mollify(TanhAffine(rate=1.0), 0.5)
        assert abs(sm(0.0)) < 1e-14

    def test_contraction_bound(self):
        sm = gaussian_mollify(TanhAffine(rate=1.0), 0.5)
        vals = sm(np.linspace(-30, 30, 1201))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    def test_derivative_paths_agree(self):
        t = np.linspace(-20, 20, 2001)

        class NoDeriv(Sampled):
            def derivative(self, tt):
                from poscomm.errors import DerivativeRequiredError
                raise DerivativeRequiredError("withheld")

        with_deriv = gaussian_mollify(Sampled(t, np.tanh(t)), 0.5)
        kernel_path = gaussian_mollify(NoDeriv(t, np.tanh(t)), 0.5)
        x = np.linspace(-2, 2, 9)
        assert np.allclose(kernel_path.derivative(x),
                           with_deriv.derivative(x), atol=1e-4)
        h = 1e-5
        numeric = (kernel_path(0.7 + h) - kernel_path(0.7 - h)) / (2 * h)
        # sampled inner function: linear-interpolation error sets the floor
        assert kernel_path.derivative(0.7) == pytest.approx(numeric, abs=1e-3)

    def test_entire_complex_evaluation(self):
        sm = gaussian_mollify(TanhAffine(rate=1.0), 0.6)
        # smoothing an odd function keeps it odd, also off the real axis
        v = sm(0.0 + 2.0j)
        assert abs(v.real) < 1e-9
        # conjugate symmetry survives the quadrature
        z = 0.8 + 1.1j
        assert abs(sm(np.conj(z)) - np.conj(sm(z))) < 1e-9


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
        rep = herglotz_check(m, m.alpha, samples=24)
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

        assert herglotz_check(signed_sum(wts), 1.0, samples=24).passed
        for i in range(3):
            flipped = list(wts)
            flipped[i] = -flipped[i]
            rep = herglotz_check(signed_sum(flipped), 1.0, samples=24)
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

    def test_conditioning_warning(self):
        fn = TanhAffine(rate=1.0)
        with pytest.warns(UserWarning):
            fit_tanh_measure(fn, np.pi / 2, np.arange(-1, 1.001, 0.05))

    def test_fit_from_raw_samples(self):
        t = np.linspace(-12, 12, 481)
        fn = TanhAffine(rate=1.0)
        fit = fit_tanh_measure(np.column_stack([t, fn(t)]), np.pi / 2,
                               np.arange(-3, 3.01, 0.2), membership_tol=1e-2)
        assert fit.member
        assert fit.clusters[0].location == pytest.approx(0.0, abs=0.05)

    def test_raw_samples_fit_as_sampled_function(self):
        # an (n, 2) array is fitted exactly as Sampled(t, f) on the same t
        t = np.linspace(-12, 12, 481)
        fn = TanhAffine(rate=1.0)
        atoms = np.arange(-3, 3.01, 0.2)
        raw = fit_tanh_measure(np.column_stack([t, fn(t)]), np.pi / 2, atoms)
        via = fit_tanh_measure(Sampled(t, fn(t)), np.pi / 2, atoms)
        np.testing.assert_array_equal(raw.measure.weights,
                                      via.measure.weights)
        assert raw.measure.offset == via.measure.offset
        assert raw.residual == via.residual
        assert raw.clusters == via.clusters
