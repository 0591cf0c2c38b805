import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from poscomm import (
    AccuracyError,
    Constant,
    FiniteRankModel,
    FourierProfile,
    GammaProbe,
    Grid,
    NotApplicableError,
    ProbeSelectionError,
    RouteMismatchError,
    SignConstraintError,
    TanhAffine,
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
from poscomm.finiterank import _largest_angle
from poscomm.operators import _BOUND_PROBES
from poscomm.reporting import make_check

from conftest import assemble


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
        w = grid_mid.dx
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


@pytest.fixture(scope="module")
def kato_top_vector(kato_op):
    """Eigenvector of the largest eigenvalue of the Kato matrix."""
    vals, vecs = np.linalg.eigh(kato_op.matrix)
    return vecs[:, np.argmax(vals)]


class TestReconstruction:
    def test_gprime_from_rank_one(self, kato_op, kato_spectrum,
                                  kato_top_vector, grid_std):
        lam = kato_spectrum.max_eig
        phi = kato_top_vector / np.sqrt(grid_std.dx)      # function values
        model = FiniteRankModel(grid_std, np.sqrt(lam) * phi[None, :], [1.0])
        recon = reconstruct_gprime(model, kato_op.f.variation)
        target = kato_op.g.derivative(grid_std.x)
        rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert rel < 1e-6
        assert np.all(recon >= 0)

    def test_fprime_from_rank_one(self, kato_op, kato_spectrum,
                                  kato_top_vector, grid_std):
        lam = kato_spectrum.max_eig
        phi = kato_top_vector / np.sqrt(grid_std.dx)
        model = FiniteRankModel(grid_std, np.sqrt(lam) * phi[None, :], [1.0])
        recon = reconstruct_fprime(model, kato_op.g.variation)
        target = kato_op.f.derivative(grid_std.k)
        rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert rel < 1e-6

    def test_scaling_invariance(self, kato_spectrum, kato_top_vector,
                                grid_std, kato_op):
        lam = kato_spectrum.max_eig
        phi = kato_top_vector / np.sqrt(grid_std.dx)
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
        assert rec.reassembly_norm_bound < 1e-5
        assert rec.cross_consistency_angle < 1e-5
        # recovered span matches the true factor span
        ang = subspace_angles(rec.model.factors.T, ex.model.factors.T)
        assert np.max(ang) < 1e-5

    def test_rank_one_single_probe(self, grid_mid):
        f, g = rank_one_pair(1.0)
        op = build_nystrom_x(f, g, grid_mid)
        rec = gamma_recover(op, GammaProbe([0.0], [0.5]))
        assert rec.model.rank == 1
        assert rec.reassembly_norm_bound < 1e-6

    def test_reassembly_bound_peak_memory(self):
        # ||model - K||_2 is bounded from ten probes, the model applied by
        # its factors and K by FFT: O(N (r + probes)) memory, no N x N
        # array (134 MB here)
        n = 4096
        f, g = rank_one_pair(1.0)
        op = build_nystrom_x(f, g, Grid(48.0, n))
        probes = GammaProbe([0.0], [0.5])
        tracemalloc.start()
        try:
            rec = gamma_recover(op, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n * (1 + _BOUND_PROBES) * 8
        assert 0.0 < rec.reassembly_norm_bound < 1e-12

    def test_rank3_model_error_row_block_peak_memory(self):
        # the rank3 kind's model-vs-kernel-norm check: no N x N array
        # besides K, and the bound covers the largest entry of M - K
        n = 1024
        grid = Grid(24.0, n)
        ex = rank_three_example(1.0, grid)
        op = build_nystrom_x(ex.f, ex.g, grid)
        tracemalloc.start()
        try:
            bound = ex.model.error_bound(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * n * 8
        assert np.max(np.abs(assemble(ex.model) - op.matrix)) <= bound < 1e-12

    def test_rank3_model_error_two_block_peak_memory(self):
        # the same check holds two N x probes blocks, K's and the model's
        # products, and FFT work of a few such blocks: under 3 * 64 * N
        # floats, where N x N is 2048 times that
        n = 2048
        grid = Grid(24.0, n)
        ex = rank_three_example(1.0, grid)
        op = build_nystrom_x(ex.f, ex.g, grid)
        tracemalloc.start()
        try:
            bound = ex.model.error_bound(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 64 * n * 8
        assert 0.0 < bound < 1e-12

    @pytest.mark.parametrize("model_complex, matrix_complex",
                             [(False, False), (False, True), (True, False),
                              (True, True)])
    def test_error_bound_dominates_the_dense_error(self, grid_small,
                                                   model_complex,
                                                   matrix_complex):
        # at least the largest entry and the 2-norm of the assembled
        # difference, whichever of the model and K is complex
        x = grid_small.x
        factors = np.vstack([np.exp(-x ** 2), x * np.exp(-x ** 2)])
        if model_complex:
            factors = factors * np.exp(0.3j * x)
        model = FiniteRankModel(grid_small, factors, [1.0, -0.5])
        # t1 != 0 turns the kernel complex
        op = build_nystrom_x(*rank_one_pair(1.0, t1=3.0 * matrix_complex),
                             grid_small)
        assert np.iscomplexobj(op.matrix) == matrix_complex
        diff = assemble(model) - op.matrix
        two_norm = np.max(np.linalg.svd(diff, compute_uv=False))
        assert np.max(np.abs(diff)) <= two_norm <= model.error_bound(op)

    def test_error_bound_of_zeros_is_zero(self, grid_small):
        # g constant makes K all zeros and a zero coefficient the model:
        # both apply as exact zeros
        op = build_nystrom_x(TanhAffine(), Constant(2.0), grid_small)
        assert not np.any(op.matrix)
        model = FiniteRankModel(grid_small, np.exp(-grid_small.x ** 2), [0.0])
        assert model.error_bound(op) == 0.0

    @pytest.mark.parametrize("at", [0, 256, -1],
                             ids=["first", "middle", "last"])
    def test_error_bound_keeps_a_nan(self, grid_small, at):
        # a NaN factor reaches every probe's product, and the check is
        # refused rather than given a verdict (it once read "fail")
        ex = rank_three_example(1.0, grid_small)
        op = build_nystrom_x(ex.f, ex.g, grid_small)
        ex.model.factors[1, at] = np.nan
        bound = ex.model.error_bound(op)
        assert np.isnan(bound)
        with pytest.raises(AccuracyError, match="model-vs-kernel-norm"):
            make_check("model-vs-kernel-norm", bound, 0.0, 1e-6)

    def test_perturbed_model_fails_the_norm_check(self, grid_mid):
        # coefficients off by 1e-3 relative: ||M - K||_2 is 1e-3 of the
        # model's norm, far above the check's 1e-6
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)
        off = FiniteRankModel(grid_mid, ex.model.factors,
                              ex.model.coefficients * (1 + 1e-3))
        dense = np.max(np.abs(np.linalg.eigvalsh(assemble(off) - op.matrix)))
        bound = off.error_bound(op)
        assert 1e-6 < dense <= bound
        check = make_check("model-vs-kernel-norm", bound, 0.0, 1e-6)
        assert check["verdict"] == "fail"

    def test_assemble_is_hermitian_bit_for_bit(self, grid_small):
        x = grid_small.x
        factors = np.vstack([np.exp(-x ** 2), x * np.exp(-x ** 2)])
        model = FiniteRankModel(grid_small, factors * np.exp(0.3j * x),
                                [1.0, -0.5])
        m = assemble(model)
        assert np.array_equal(m, m.conj().T)

    def test_real_model_against_complex_kernel_peak_memory(self):
        # complex probes of the difference of a real model and a complex
        # K: the model's products stay O(N (r + probes)) complex
        n = 2048
        grid = Grid(24.0, n)
        ex = rank_three_example(1.0, grid)
        op = build_nystrom_x(*rank_one_pair(1.0, t1=3.0), grid)
        assert np.iscomplexobj(op.matrix)
        tracemalloc.start()
        try:
            bound = ex.model.error_bound(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n * (3 + _BOUND_PROBES) * 16
        # the model is not this K: the bound is above the dense 2-norm of
        # the difference, by 17 here, not by orders of magnitude
        diff = assemble(ex.model) - op.matrix
        two_norm = np.max(np.abs(np.linalg.eigvalsh(diff)))
        assert two_norm <= bound <= 100 * two_norm

    def test_zero_imaginary_factors_stay_real(self, grid_small):
        # a real kernel read through a complex profile gives complex
        # factors with zero imaginary part: the model keeps them real
        base = np.exp(-grid_small.x ** 2)
        model = FiniteRankModel(grid_small, base[None, :] + 0j, [1.0])
        assert model.factors.dtype == assemble(model).dtype == np.float64

    def test_degenerate_probes_rejected(self, grid_mid):
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)
        probes = GammaProbe([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        with pytest.raises(ProbeSelectionError):
            gamma_recover(op, probes)

    @pytest.mark.parametrize("t1", [0.0, 3.0], ids=["real", "complex"])
    def test_columns_are_the_operator_rows(self, grid_small, monkeypatch,
                                           t1):
        # gamma_j = conj(row idx_j of K) / dx and P = gamma at the nodes,
        # bit for bit: the recovered factors are those of K's own entries
        op = build_nystrom_x(*rank_one_pair(1.0, t1=t1), grid_small)
        probes = GammaProbe([0.3], [-0.8])
        grams, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda p: grams.append(p) or eigh(p))
        rec = gamma_recover(op, probes)
        idx = [grid_small.index_of(0.3)]
        gcols = op.matrix[idx].conj().T / grid_small.dx
        np.testing.assert_array_equal(grams[0], gcols[idx])
        lam, vec = eigh(grams[0])
        np.testing.assert_array_equal(
            rec.model.factors, ((gcols @ vec) / np.sqrt(np.abs(lam))).T)
        np.testing.assert_array_equal(rec.nodes_a, grid_small.x[idx])
        assert np.iscomplexobj(rec.model.factors) == (t1 != 0)

    def test_reads_neither_g_nor_the_profile(self, grid_mid, monkeypatch):
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)

        def boom(*args, **kwargs):
            raise AssertionError("evaluated outside the operator")

        for name in ("__call__", "real_values"):
            monkeypatch.setattr(FourierProfile, name, boom)
        for name in ("__call__", "derivative", "without_offset"):
            monkeypatch.setattr(TanhAffine, name, boom)
        rec = gamma_recover(op, GammaProbe([0.0, 1.1, -0.7],
                                           [0.5, -1.3, 2.1]))
        assert rec.reassembly_norm_bound < 1e-10

    @pytest.mark.parametrize("y", [24.0, -24.5, 30.0, np.nan])
    def test_probe_outside_the_window_rejected(self, grid_small, y):
        # the window is [-L, L): L itself is outside
        op = build_nystrom_x(*rank_one_pair(1.0), grid_small)
        with pytest.raises(ProbeSelectionError, match=f"probe point {y!r}"):
            gamma_recover(op, GammaProbe([0.0], [y]))

    def test_probes_on_one_node_rejected(self, grid_mid):
        # distinct probes a quarter node apart read one row twice
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)
        q = grid_mid.dx / 4
        probes = GammaProbe([0.0, q, 1.1], [0.5, 0.5 + q, -1.3])
        with pytest.raises(ProbeSelectionError, match="dx = 0.0469"):
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


def _near(draw, regime):
    """An angle of the regime: anywhere, near 1e-9 or near pi/2."""
    u = draw(st.floats(1.0, 10.0))
    if regime == "tiny":
        return u * 1e-10
    if regime == "right":
        return np.pi / 2 - u * 1e-10
    return draw(st.floats(1e-3, np.pi / 2 - 1e-3))


@st.composite
def subspace_pairs(draw):
    """Column spaces with known principal angles: real or complex, of
    unequal widths, each spanned by a mixed (not orthonormal) basis."""
    ka, kb = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = ka + kb + draw(st.integers(0, 20))
    complex_ = draw(st.booleans())
    regime = draw(st.sampled_from(["random", "tiny", "right", "mixed"]))
    k = min(ka, kb)
    angles = np.array([_near(draw, ("tiny", "right")[i % 2]
                             if regime == "mixed" else regime)
                       for i in range(k)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    def mixing(width):    # condition number at most 100
        q = np.linalg.qr(gaussian(width, width))[0]
        return q * 10.0 ** rng.uniform(-1.0, 1.0, width)

    q = np.linalg.qr(gaussian(n, ka + kb))[0]
    a = q[:, :ka] @ mixing(ka)
    b = np.cos(angles) * q[:, :k] + np.sin(angles) * q[:, ka:ka + k]
    b = np.hstack([b, q[:, ka + k:ka + kb]]) @ mixing(kb)
    return a, b, np.sort(angles)[::-1]


class TestPrincipalAngles:
    """The largest principal angle against the known angles and against
    scipy.linalg.subspace_angles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(subspace_pairs())
    def test_known_angles_and_scipy(self, pair):
        a, b, angles = pair
        theta = _largest_angle(a, b)
        assert theta == pytest.approx(max(angles), rel=0, abs=1e-13)
        # scipy picks the arcsine or arccosine branch for the i-th largest
        # angle from the i-th largest cosine, the i-th smallest angle: the
        # right branch only when all angles fall on one side of pi/4
        # (else, say, 1e-3 beside 1.0 comes from an arccos, 2e-13 off)
        small = angles < np.pi / 4
        if np.all(small) or not np.any(small):
            assert theta == pytest.approx(max(subspace_angles(a, b)),
                                          rel=0, abs=1e-13)

    def test_small_angle_beside_a_large_one(self):
        # scipy 1.17's subspace_angles reads the 1e-9 angle here as 0
        e = np.eye(6)
        a = e[:, :2]
        b = np.column_stack([np.cos(1e-9) * e[:, 0] + np.sin(1e-9) * e[:, 2],
                             np.cos(1.5) * e[:, 1] + np.sin(1.5) * e[:, 3]])
        assert _largest_angle(a, b) == 1.5
        assert _largest_angle(a, b[:, :1]) == pytest.approx(1e-9, rel=1e-7)
