import numpy as np
import pytest

from poscomm import (
    AccuracyError,
    AveragingProfile,
    TanhAffine,
    averaged_quotient,
    averaging_weight,
    averaging_weight_series,
    convergence_study,
)


class TestWeight:
    def test_integral_is_one(self):
        prof = AveragingProfile()
        assert prof.weight_integral() == pytest.approx(1.0, abs=1e-10)

    def test_positive_and_increasing(self):
        w = np.linspace(0.01, 0.99, 99)
        h = averaging_weight(w)
        assert np.all(h > 0)
        assert np.all(np.diff(h) > 0)

    def test_series_identity(self):
        w = np.linspace(0.0, 0.9, 91)
        direct = averaging_weight(np.where(w == 0, 1e-300, w))
        direct[w == 0] = 0.0
        series = averaging_weight_series(w)
        assert np.max(np.abs(direct - series)) < 1e-12


class Line:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, t):
        return self.a * np.asarray(t) + self.b

    def derivative(self, t):
        return self.a * np.ones_like(np.asarray(t, dtype=float))


class TestAveragedQuotient:
    def test_linear_is_exact(self):
        g = Line(1.7, -0.2)
        for x in (-3.0, 0.0, 5.5):
            for r in (1.0, 0.1, 0.01):
                assert averaged_quotient(g, x, r) == pytest.approx(
                    1.7, abs=1e-12)

    def test_tanh_small_r(self):
        g = TanhAffine(rate=1.0)
        assert averaged_quotient(g, 0.0, 0.1) == pytest.approx(1.0, abs=0.01)

    def test_even_function_gives_zero(self):
        g = lambda t: np.cosh(np.asarray(t) - 1.3) ** -1
        assert abs(averaged_quotient(g, 1.3, 0.05)) < 1e-14

    def test_accuracy_check_passes(self):
        g = TanhAffine(rate=1.0)
        v = averaged_quotient(g, 0.3, 0.05)
        assert np.isfinite(v)

    def test_kink_inside_the_window_raises(self):
        # |t - 0.03| has its kink inside [x - r, x + r]: doubling the nodes
        # moves I_r by about 1.2e-5, and the check always runs
        with pytest.raises(AccuracyError):
            averaged_quotient(lambda t: abs(t - 0.03), 0.0, 0.1)

    def test_nonnegative_for_monotone(self):
        g = TanhAffine(rate=2.0, center=0.7)
        for x in np.linspace(-3, 3, 11):
            for r in (0.5, 0.1):
                assert averaged_quotient(g, x, r) >= 0


class TestConvergence:
    def test_tanh_quadratic_rate(self):
        study = convergence_study(TanhAffine(rate=1.0),
                                  np.linspace(-2, 2, 17),
                                  [0.2, 0.1, 0.05, 0.025])
        assert 1.8 <= study.slope <= 2.2

    def test_steeper_function_same_rate_bigger_constant(self):
        mild = convergence_study(TanhAffine(rate=1.0),
                                 np.linspace(-2, 2, 9),
                                 [0.2, 0.1, 0.05, 0.025])
        steep = convergence_study(TanhAffine(rate=5.0),
                                  np.linspace(-2, 2, 9),
                                  [0.05, 0.025, 0.0125, 0.00625])
        assert 1.8 <= steep.slope <= 2.2
        # compare constants at matched r via err ~ C r^2
        c_mild = mild.max_errors[-1] / mild.r_values[-1] ** 2
        c_steep = steep.max_errors[-1] / steep.r_values[-1] ** 2
        assert c_steep > 10 * c_mild

    def test_linear_at_rounding_level(self):
        study = convergence_study(Line(2.0, 1.0), np.linspace(-2, 2, 5),
                                  [0.2, 0.1, 0.05])
        assert np.max(study.max_errors) < 1e-12

    def test_requires_decreasing_r(self):
        with pytest.raises(ValueError):
            convergence_study(TanhAffine(), [0.0], [0.1, 0.2])
