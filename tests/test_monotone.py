import numpy as np
import pytest

from poscomm import (
    ContainmentError,
    Grid,
    TanhAffine,
    build_nystrom_x,
    catalog,
    compose_pair,
    composition_positivity_experiment,
    loewner_certificate,
    loewner_matrix,
    rank_one_pair,
    spectrum,
)
from poscomm.monotone import LOEWNER_TOL

from conftest import claimed_monotone_entries

CAT = catalog()


class TestLoewnerTest:
    def test_affine_exact(self):
        # the Loewner matrix of an affine F is the constant slope: rank 1
        cert = loewner_certificate(CAT["affine"], [2, 3, 5])
        assert min(cert.margins.values()) > -1e-12
        assert cert.all_orders_margin > -1e-12

    def test_sqrt_passes(self):
        # strictly positive margins on few nodes; the 64-node matrix of an
        # operator monotone function is Cauchy-like, PSD to rounding
        cert = loewner_certificate(CAT["sqrt"], [2, 3, 5])
        assert [cert.margins[n] for n in (2, 3, 5)] == pytest.approx(
            [3.4e-2, 5.2e-4, 7.7e-8], rel=0.02)
        assert cert.all_orders_margin >= -1e-14

    def test_claimed_catalog_passes_small_orders(self):
        for entry in claimed_monotone_entries():
            cert = loewner_certificate(entry, [2, 3, 5])
            assert min(cert.margins.values()) >= -LOEWNER_TOL, entry.name
            assert cert.all_orders_margin >= -LOEWNER_TOL, entry.name
            assert cert.witness_det >= -1e-13, entry.name

    def test_tanh_and_arctan_are_not_matrix_monotone(self):
        # strip-Herglotz does not imply the Loewner property: the 2x2
        # determinant f'(x)f'(y) - f[x,y]^2 is negative for tanh because
        # sinh(u)/u > 1
        for name in ("tanh", "arctan"):
            entry = CAT[name]
            assert not entry.claimed_monotone
            assert loewner_certificate(entry, [2]).margins[2] < -0.1

    def test_non_monotone_entries_have_two_node_witness(self):
        for name, det in (("tanh", -0.40), ("arctan", -0.37),
                          ("square", -0.25), ("square-wide", -1.0)):
            cert = loewner_certificate(CAT[name], [3])
            assert cert.witness_det == pytest.approx(det, abs=0.01), name
            # the pair's own 2x2 Loewner matrix is indefinite
            mat = loewner_matrix(CAT[name], cert.witness)
            assert np.linalg.det(mat) < 0, name

    def test_loewner_matrix_symmetric_with_derivative_diagonal(self):
        for entry in CAT.values():
            lo, hi = entry.test_interval
            nodes = np.linspace(lo, hi, 19)[1:-1]
            mat = loewner_matrix(entry, nodes)
            assert np.array_equal(mat, mat.T), entry.name
            assert np.array_equal(np.diag(mat), entry.deriv(nodes))
            assert mat[0, 1] == ((entry.func(nodes[0]) - entry.func(nodes[1]))
                                 / (nodes[0] - nodes[1]))

    def test_repeated_nodes_and_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            loewner_matrix(CAT["sqrt"], [1.0, 2.0, 1.0])
        for orders in ([], [1], [2, 2.5], [True]):
            with pytest.raises(ValueError):
                loewner_certificate(CAT["sqrt"], orders)

    def test_tanh_loewner_determinant_negative(self):
        # direct 2-point witness, independent of the certificate
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
