import numpy as np
import pytest

from poscomm import (
    FiniteRankModel,
    GammaProbe,
    NotApplicableError,
    ProbeSelectionError,
    RouteMismatchError,
    SignConstraintError,
    build_nystrom_p,
    build_nystrom_x,
    default_probes,
    gamma_recover,
    rank_one_pair,
    rank_three_example,
    reconstruct_fprime,
    reconstruct_gprime,
    spectrum,
    strip_product_check,
)
from poscomm.grids import quadrature_weights


class TestRankOnePair:
    def test_sign_constraint(self):
        with pytest.raises(SignConstraintError):
            rank_one_pair(1.0, c1=1.0, c2=-1.0)

    def test_eigenvalue_with_scales(self, grid_mid):
        c1, c2 = 0.8, 1.5
        f, g = rank_one_pair(1.0, c1=c1, c2=c2)
        rep = spectrum(build_nystrom_x(f, g, grid_mid))
        assert rep.numerical_rank == 1
        assert rep.max_eig == pytest.approx(2 * c1 * c2 / np.pi, abs=1e-4)

    def test_translation_invariance(self, grid_std, kato_spectrum):
        f, g = rank_one_pair(1.0, t1=3.0, t2=-2.0)
        rep = spectrum(build_nystrom_x(f, g, grid_std))
        assert rep.max_eig == pytest.approx(kato_spectrum.max_eig, abs=1e-8)
        assert rep.numerical_rank == 1

    def test_rate_mismatch_breaks_rank_one(self, grid_mid):
        from poscomm import TanhAffine
        f = TanhAffine(rate=1.1 * np.pi / 2)   # alpha*alpha_hat != pi/2
        g = TanhAffine(rate=1.0)
        rep = spectrum(build_nystrom_x(f, g, grid_mid))
        assert rep.numerical_rank > 1
        assert not rep.positive                # indefinite off the manifold


@pytest.fixture(scope="module")
def ex_op_rep(grid_mid):
    ex = rank_three_example(1.0, grid_mid)
    op = build_nystrom_x(ex.f, ex.g, grid_mid)
    return ex, op, spectrum(op)


class TestRank3:
    def test_factor_orthogonality(self, ex_op_rep, grid_mid):
        ex, _, _ = ex_op_rep
        w = quadrature_weights(grid_mid)
        phi, phi_p, phi_m = ex.model.factors
        assert abs(np.sum(w * phi * phi_m)) < 1e-12
        # the half-open grid is asymmetric by one node; the boundary term
        # for the slower-decaying product is ~ dx*exp(-L)
        assert abs(np.sum(w * phi_p * phi_m)) < 1e-11

    def test_odd_sector_quadratic_form(self, ex_op_rep, grid_mid):
        ex, op, _ = ex_op_rep
        phi_m = ex.model.factors[2]
        u = np.sqrt(grid_mid.dx) * phi_m
        quad_form = float(np.real(u @ op.matrix @ u))
        norm2 = ex.model.factor_norms_sq()[2]
        assert quad_form == pytest.approx(-(1.0 / np.pi) * norm2 ** 2,
                                          rel=1e-9)
        assert quad_form < 0

    def test_norms_against_closed_values(self, ex_op_rep):
        ex, _, _ = ex_op_rep
        n = ex.model.factor_norms_sq()
        assert n[0] == pytest.approx(2.0, rel=1e-9)
        assert n[1] == pytest.approx((np.pi + 2) / 2, rel=1e-9)
        assert n[2] == pytest.approx((np.pi - 2) / 2, rel=1e-9)

    def test_spectrum_structure(self, ex_op_rep):
        _, _, rep = ex_op_rep
        assert rep.numerical_rank == 3
        assert rep.sign_pattern() == (2, 1)
        assert rep.min_eig == pytest.approx(-(np.pi - 2) / (2 * np.pi),
                                            rel=1e-6)
        assert rep.trace == pytest.approx(4 / np.pi, rel=1e-6)

    def test_trace_matches_factor_norms(self, ex_op_rep):
        # [f][g]/2pi against (1/pi)||phi||^2 + (beta/pi)(||phi_p||^2 - ||phi_m||^2)
        ex, _, rep = ex_op_rep
        n = ex.model.factor_norms_sq()
        by_norms = (n[0] + n[1] - n[2]) / np.pi
        assert rep.trace == pytest.approx(by_norms, rel=1e-9)

    def test_beta_validation(self, grid_small):
        with pytest.raises(ValueError):
            rank_three_example(-1.0, grid_small)


class TestReconstruction:
    def test_gprime_from_rank_one(self, kato_op, kato_spectrum, grid_std):
        lam = kato_spectrum.max_eig
        vec = kato_spectrum.vectors[:, 0]
        phi = vec / np.sqrt(grid_std.dx)          # function values
        model = FiniteRankModel(grid_std, np.sqrt(lam) * phi[None, :], [1.0])
        recon = reconstruct_gprime(model, kato_op.f.variation)
        target = kato_op.g.derivative(grid_std.x)
        rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert rel < 1e-6
        assert np.all(recon >= 0)

    def test_fprime_from_rank_one(self, kato_op, kato_spectrum, grid_std):
        lam = kato_spectrum.max_eig
        phi = kato_spectrum.vectors[:, 0] / np.sqrt(grid_std.dx)
        model = FiniteRankModel(grid_std, np.sqrt(lam) * phi[None, :], [1.0])
        recon = reconstruct_fprime(model, kato_op.g.variation)
        target = kato_op.f.derivative(grid_std.k)
        rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert rel < 1e-6

    def test_scaling_invariance(self, kato_spectrum, grid_std, kato_op):
        lam = kato_spectrum.max_eig
        phi = kato_spectrum.vectors[:, 0] / np.sqrt(grid_std.dx)
        m1 = FiniteRankModel(grid_std, np.sqrt(lam) * phi[None, :], [1.0])
        m2 = FiniteRankModel(grid_std, np.sqrt(2 * lam) * phi[None, :], [1.0])
        r1 = reconstruct_gprime(m1, kato_op.f.variation)
        r2 = reconstruct_gprime(m2, 2 * kato_op.f.variation)
        assert np.allclose(r1, r2, rtol=1e-12)

    def test_mixed_signs_rejected(self, grid_mid):
        ex = rank_three_example(1.0, grid_mid)
        with pytest.raises(NotApplicableError):
            reconstruct_gprime(ex.model, 4.0)
        with pytest.raises(NotApplicableError):
            reconstruct_fprime(ex.model, 2.0)

    def test_zero_model(self, grid_small):
        base = np.exp(-grid_small.x ** 2)
        model = FiniteRankModel(grid_small, 0.0 * base[None, :] + 1e-30 *
                                base[None, :], [1.0])
        out = reconstruct_fprime(model, 2.0)
        assert np.max(np.abs(out)) < 1e-50


class TestGammaRecovery:
    def test_rank3_recovery(self, grid_mid):
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)
        probes = GammaProbe([0.0, 1.1, -0.7], [0.5, -1.3, 2.1])
        rec = gamma_recover(op, probes)
        assert rec.reassembly_max_err < 1e-5
        assert rec.cross_consistency_angle < 1e-5
        # recovered span matches the true factor span
        from scipy.linalg import subspace_angles
        ang = subspace_angles(rec.model.factors.T, ex.model.factors.T)
        assert np.max(ang) < 1e-5

    def test_rank_one_single_probe(self, grid_mid):
        f, g = rank_one_pair(1.0)
        op = build_nystrom_x(f, g, grid_mid)
        rec = gamma_recover(op, GammaProbe([0.0], [0.5]))
        assert rec.model.rank == 1
        assert rec.reassembly_max_err < 1e-6

    def test_degenerate_probes_rejected(self, grid_mid):
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)
        probes = GammaProbe([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        with pytest.raises(ProbeSelectionError):
            gamma_recover(op, probes)

    def test_wrong_route_rejected(self, grid_small):
        f, g = rank_one_pair(1.0)
        op = build_nystrom_p(f, g, grid_small)
        with pytest.raises(RouteMismatchError):
            gamma_recover(op, GammaProbe([0.0], [0.5]))

    def test_default_probes_are_separated(self):
        p = default_probes(3, seed=11)
        assert np.min(np.abs(p.points_a[:, None] - p.points_b[None, :])) > 0.1
        assert np.min(np.abs(np.diff(np.sort(p.points_a)))) > 0.1


class TestStripProduct:
    def test_rank3_strip_product(self, grid_mid):
        ex = rank_three_example(1.0, grid_mid)
        sp = strip_product_check(ex.f, ex.g, grid_mid)
        assert sp.strip_f == pytest.approx(0.5, rel=0.02)
        assert sp.strip_g == pytest.approx(np.pi / 2, rel=0.02)
        assert sp.product == pytest.approx(np.pi / 4, rel=0.05)
        assert sp.within_bound

    def test_kato_pair_saturates(self, grid_mid, kato_pair):
        f, g = kato_pair
        sp = strip_product_check(f, g, grid_mid)
        assert sp.product == pytest.approx(np.pi / 2, rel=0.02)
        assert sp.within_bound
