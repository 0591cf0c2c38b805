import numpy as np
import pytest

from poscomm import (
    ContainmentError,
    Grid,
    TanhAffine,
    build_nystrom_x,
    catalog,
    claimed_monotone_entries,
    compose_pair,
    composition_positivity_experiment,
    loewner_matrix_test,
    rank_one_pair,
    spectrum,
)

CAT = catalog()


class TestLoewnerTest:
    def test_affine_exact(self):
        rep = loewner_matrix_test(CAT["affine"], 3, 50, seed=5)
        assert rep.passed
        assert rep.worst_margin > -1e-12

    def test_sqrt_passes(self):
        rep = loewner_matrix_test(CAT["sqrt"], 4, 1000, seed=7)
        assert rep.passed

    def test_square_falsified_quickly(self):
        rep = loewner_matrix_test(CAT["square"], 3, 100, seed=3)
        assert not rep.passed
        assert rep.first_violation is not None and rep.first_violation < 100

    def test_claimed_catalog_passes_small_orders(self):
        for entry in claimed_monotone_entries():
            for n in (2, 3):
                rep = loewner_matrix_test(entry, n, 120, seed=42)
                assert rep.passed, (entry.name, n, rep.worst_margin)

    def test_tanh_and_arctan_are_not_matrix_monotone(self):
        # strip-Herglotz does not imply the Loewner property: the 2x2
        # determinant f'(x)f'(y) - f[x,y]^2 is negative for tanh because
        # sinh(u)/u > 1; random search finds it immediately
        for name in ("tanh", "arctan"):
            entry = CAT[name]
            assert not entry.claimed_monotone
            rep = loewner_matrix_test(entry, 2, 100, seed=1)
            assert not rep.passed
            assert rep.first_violation < 10
            assert rep.worst_margin < -1e-3

    def test_tanh_loewner_determinant_negative(self):
        # direct 2-point witness, independent of the random search
        x, y = 1.0, -1.0
        fp = lambda t: 1 / np.cosh(t) ** 2
        dq = (np.tanh(x) - np.tanh(y)) / (x - y)
        assert fp(x) * fp(y) - dq ** 2 < -0.3

    def test_scalar_monotonicity_n1_reduction(self):
        rng = np.random.default_rng(0)
        for entry in claimed_monotone_entries():
            lo, hi = entry.test_interval
            a = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 50)
            b = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 50)
            lo_v, hi_v = np.minimum(a, b), np.maximum(a, b)
            assert np.all(entry.func(hi_v) >= entry.func(lo_v) - 1e-12), \
                entry.name

    def test_seed_reproducibility(self):
        a = loewner_matrix_test(CAT["sqrt"], 3, 50, seed=9)
        b = loewner_matrix_test(CAT["sqrt"], 3, 50, seed=9)
        assert a.worst_margin == b.worst_margin


class TestComposePair:
    def test_identity_composition(self, kato_pair):
        f, g = kato_pair
        ff, gg = compose_pair(CAT["identity"], f, CAT["identity"], g)
        t = np.linspace(-5, 5, 41)
        assert np.allclose(ff(t), f(t))
        assert np.allclose(gg(t), g(t))

    def test_log_range_containment(self, kato_pair):
        f, _ = kato_pair
        ff = compose_pair(CAT["log-shift"], f, CAT["identity"], f)[0]
        lo, hi = ff.limits
        assert lo == pytest.approx(np.log(1.0))
        assert hi == pytest.approx(np.log(3.0))

    def test_domain_violation(self):
        # sqrt on (0, inf) cannot take tanh's range (-1, 1)
        with pytest.raises(ContainmentError):
            compose_pair(CAT["sqrt"], TanhAffine(rate=1.0),
                         CAT["identity"], TanhAffine(rate=1.0))

    def test_chain_rule_derivative(self, kato_pair):
        f, _ = kato_pair
        ff = compose_pair(CAT["log-shift"], f, CAT["identity"], f)[0]
        t = np.linspace(-3, 3, 13)
        h = 1e-6
        numeric = (ff(t + h) - ff(t - h)) / (2 * h)
        assert np.allclose(ff.derivative(t), numeric, atol=1e-8)


class TestCompositionPositivity:
    def test_log_composition_stays_psd(self, kato_pair, grid_mid):
        f, g = kato_pair
        rep = composition_positivity_experiment(
            CAT["log-shift"], f, CAT["identity"], g, grid_mid)
        assert rep.positive
        # composed trace identity: [F o f][G o g]/(2 pi)
        assert rep.trace == pytest.approx(np.log(3.0) * 2.0 / (2 * np.pi),
                                          rel=1e-6)

    def test_identity_reproduces_base(self, kato_pair, grid_mid):
        f, g = kato_pair
        rep = composition_positivity_experiment(
            CAT["identity"], f, CAT["identity"], g, grid_mid)
        base = spectrum(build_nystrom_x(f, g, grid_mid))
        assert rep.max_eig == pytest.approx(base.max_eig, rel=1e-9)

    def test_nonmonotone_composition_goes_indefinite(self, kato_pair,
                                                     grid_mid):
        # x^2 over a sign-changing range destroys monotonicity of F o f,
        # so positivity has no protection and in fact fails
        f, g = kato_pair
        rep = composition_positivity_experiment(
            CAT["square-wide"], f, CAT["identity"], g, grid_mid)
        assert rep.min_eig < -1e-10 * abs(rep.max_eig)
        assert not rep.positive

    def test_monotone_pairs_over_psd_bases(self, grid_mid):
        from poscomm import TanhMeasure
        base2 = (TanhMeasure([-1.0, 1.0], [0.5, 0.5], alpha=1.0),
                 TanhMeasure([0.0], [0.8], alpha=np.pi / 2))
        combos = [("sqrt-shift", "log-shift"), ("moebius", "affine")]
        for base in (rank_one_pair(1.0), base2):
            for fn_name, gn_name in combos:
                rep = composition_positivity_experiment(
                    CAT[fn_name], base[0], CAT[gn_name], base[1], grid_mid)
                assert rep.positive, (fn_name, gn_name)

    def test_howland_base_with_gside_composition(self, grid_mid):
        # the arctan side keeps its closed-form transform (its composed
        # derivative has polynomial tails, unusable on the FFT route), so
        # the outer function on that side is the identity
        from poscomm import ArctanAffine
        f = ArctanAffine(width=2.0)
        g = TanhAffine(rate=1.0)
        rep = composition_positivity_experiment(
            CAT["identity"], f, CAT["moebius"], g, grid_mid)
        assert rep.positive
