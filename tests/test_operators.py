import dataclasses
import os
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import circulant

from poscomm import (
    AccuracyError,
    ArctanAffine,
    Constant,
    DivergenceError,
    FunctionSum,
    Grid,
    NotApplicableError,
    PeriodizationError,
    RouteMismatchError,
    Sine,
    StripViolationError,
    TanhAffine,
    TanhMeasure,
    build_direct,
    build_nystrom_p,
    build_nystrom_x,
    catalog,
    compose_pair,
    fourier_deriv,
    rank_one_pair,
    rank_three_example,
    route_agreement,
    shifted_trace,
    spectrum,
    strip_positivity_check,
    trace_identity_check,
)
from poscomm import operators
from poscomm.cli import _operator, _pair, load_config
from poscomm.grids import SQRT_2PI
from poscomm.operators import (
    POSITIVITY_TOL,
    RANK_THRESHOLD,
    DiscretizedOperator,
    _BOUND_PROBES,
    _certified,
    _significant,
)

from conftest import (
    Dense,
    assemble,
    dense_spectrum,
    operator_two_norm,
    oracle_krylov,
    same_bits,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs", "paper")


class TestNystromX:
    def test_kato_diagonal_entry(self, kato_op, grid_std):
        # at x = 0:  dx * (1/sqrt(2pi)) g'(0) fhat(0) = dx/pi
        mid = grid_std.index_of(0.0)
        assert kato_op.matrix[mid, mid] == pytest.approx(
            grid_std.dx / np.pi, rel=1e-12)

    def test_constant_gives_zero(self, grid_small):
        op = build_nystrom_x(Constant(1.0), TanhAffine(rate=1.0), grid_small)
        assert np.max(np.abs(op.matrix)) == 0.0
        op2 = build_nystrom_x(TanhAffine(rate=1.0), Constant(0.3), grid_small)
        assert np.max(np.abs(op2.matrix)) < 1e-16

    def test_hermiticity(self, kato_op, grid_small):
        # every route is exactly Hermitian by construction, the composed
        # pair's quadrature lattice included, though it is not conjugate-
        # symmetric bit for bit; the raw defect is measured.  The
        # finite-rank model is a GEMM product, Hermitian to rounding
        f, g = rank_one_pair(1.0, t1=3.0, t2=-2.0)
        ops = [kato_op] + [build(f, g, grid_small) for build in
                           (build_nystrom_x, build_nystrom_p, build_direct)]
        ops.append(build_nystrom_x(*_composed_pair(), grid_small))
        assert ops[-1].profile.route == "fft"
        assert ops[-1].hermiticity_defect > 0.0
        for op in ops:
            m = op.matrix
            assert np.array_equal(m, m.conj().T), op.route
            assert np.isfinite(op.hermiticity_defect), op.route
            assert op.hermiticity_defect < 1e-12 * np.max(np.abs(m)), op.route
        m = assemble(rank_three_example(1.0, grid_small).model)
        assert np.max(np.abs(m - m.conj().T)) <= (
            4 * np.finfo(float).eps * np.max(np.abs(m)))

    def test_shifted_pair_is_complex_hermitian(self, grid_mid):
        f, g = rank_one_pair(1.0, t1=3.0, t2=-2.0)
        op = build_nystrom_x(f, g, grid_mid)
        assert np.iscomplexobj(op.matrix)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-14

    def test_rank3_kernel_matches_model(self, grid_mid):
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)
        assert np.max(np.abs(assemble(ex.model) - op.matrix)) < 1e-6


class TestSpectrum:
    def test_kato_rank_one(self, kato_spectrum):
        rep = kato_spectrum
        assert rep.numerical_rank == 1
        assert rep.max_eig == pytest.approx(2 / np.pi, abs=1e-4)
        assert abs(rep.eigenvalues[1]) / rep.max_eig < 1e-6
        assert rep.positive

    def test_eigen_sum_equals_trace(self, kato_spectrum, kato_op):
        assert np.sum(kato_spectrum.eigenvalues) == pytest.approx(
            kato_op.trace(), abs=1e-10 * kato_op.n)

    def test_zero_operator(self, grid_small):
        op = build_nystrom_x(Constant(1.0), TanhAffine(), grid_small)
        rep = spectrum(op)
        assert rep.numerical_rank == 0
        assert rep.positive

    def test_small_grid_takes_dense_path(self, kato_pair):
        # below N = 128 the sketch does not pay: eigvalsh of the matrix,
        # with no apply
        op = build_nystrom_x(*kato_pair, Grid(8.0, 64))
        counted = _counted(op)
        assert _certified(counted) is None and counted.widths == []
        rep = spectrum(op)
        assert rep.solver == "dense" and rep.residual_bound == 0.0
        np.testing.assert_array_equal(rep.eigenvalues,
                                      np.linalg.eigvalsh(op.matrix)[::-1])

    @pytest.mark.parametrize("build", [build_nystrom_x, build_nystrom_p,
                                       build_direct],
                             ids=["nystrom-x", "nystrom-p", "direct"])
    def test_matrix_is_frozen(self, build, kato_pair):
        # spectrum reads the builder's matrix unchecked: no caller may
        # replace it or edit it in place
        op = build(*kato_pair, Grid(24.0, 256))
        with pytest.raises(FrozenInstanceError):
            op.matrix = np.eye(op.n)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0
        # nor its factors, which spectrum applies in its place
        with pytest.raises(FrozenInstanceError):
            op._factors = op._factors._replace(d=np.zeros(op.n))
        for factor in op._factors:
            with pytest.raises(ValueError):
                factor[0] = 1.0


class TestRandomizedSolver:
    def test_low_rank_takes_randomized_path(self, kato_op):
        rep = spectrum(kato_op)
        assert rep.solver == "randomized"
        assert rep.eigenvalues.size < kato_op.n
        assert np.all(np.diff(rep.eigenvalues) <= 0)
        assert 0.0 < rep.residual_bound <= 1e-6 * rep.max_eig
        assert rep.numerical_rank == 1
        assert rep.max_eig == pytest.approx(2 / np.pi, abs=1e-4)
        assert rep.positive

    def test_deterministic(self, kato_op):
        a, b = spectrum(kato_op), spectrum(kato_op)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert (a.min_eig, a.max_eig, a.residual_bound, a.numerical_rank,
                a.positive) == (b.min_eig, b.max_eig, b.residual_bound,
                                b.numerical_rank, b.positive)

    @pytest.fixture(scope="class")
    def howland_op(self):
        # arctan f decays algebraically: hundreds of significant
        # eigenvalues at N = 1024, where a sketch does not pay
        cfg = load_config(os.path.join(CONFIG_DIR,
                                       "verify-pair-howland.json"))
        assert cfg["grid"]["N"] == 1024
        return _operator(cfg)

    @staticmethod
    def _synthetic(tail, top=(1.0, 0.8, -0.5, 0.3), decay=None):
        # the significant eigenvalues ``top``; the tail stays below
        # RANK_THRESHOLD * max|lambda|, spread at random or falling by
        # ``decay`` a step; the matrix read by GEMMs (``Dense``)
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((256, 256)))[0]
        size = 256 - len(top)
        rest = (tail * decay ** np.arange(size) if decay
                else tail * rng.uniform(0.2, 0.9, size))
        lam = np.concatenate([top, rest])
        return Dense((q * lam) @ q.T), lam

    def test_certified_sketch_stops_at_depth_one(self, kato_op,
                                                 monkeypatch):
        # the rank-one Kato operator certifies at depth 1,
        # Z = Q1 = orth(K Omega_8), and one QR: Toeplitz products of 16
        # columns for K Omega_8, 8 for Q1^H K Q1 and 20 for K W
        counted, qrs = _counted(kato_op), _counted_qr(monkeypatch)
        theta, eps = _certified(counted)
        assert counted.widths == [16, 8, 20] and len(qrs) == 1
        rep = spectrum(kato_op)
        assert same_bits(theta, rep.eigenvalues) and eps == rep.residual_bound
        ref_theta, ref_eps = oracle_krylov(kato_op)
        assert same_bits(theta, ref_theta) and eps == ref_eps
        assert rep.numerical_rank == 1
        assert 0.0 < eps <= 1e-12 * rep.max_eig

    def test_deeper_depth_when_the_sketch_does_not_certify(self):
        # a tail 1e-6 * 0.65^j: depth 1 leaves eps/max at 1.7e-5, above
        # RANK_THRESHOLD, and depth 2 brings it to 4.7e-7.  The matrix
        # multiplies Omega, Q1 for B, the probes once, K Q1 and Z for B
        m, _ = self._synthetic(1e-6, decay=0.65)
        omega, w = _fresh_draws(256, 8)
        q1 = np.linalg.qr(m.m @ omega)[0]
        theta1 = np.linalg.eigvalsh(q1.T @ m.m @ q1)
        y = m.m @ w
        y -= q1 @ (q1.T @ y)
        first = 2 * operators._norm_bound(y) / np.max(np.abs(theta1))
        assert 1.6e-5 < first < 1.8e-5
        theta, eps = _certified(m)
        assert m.widths == [8, 8, 10, 8, 16] and theta.size == 16
        assert 4.6e-7 < eps / np.max(np.abs(theta)) < 4.8e-7
        ref_theta, ref_eps = oracle_krylov(self._synthetic(1e-6,
                                                           decay=0.65)[0])
        assert same_bits(theta, ref_theta) and eps == ref_eps

    def test_deep_solve_of_an_operator_keeps_the_bits(self):
        # g = tanh(t) + 5e-8 tanh(t/2) against f = tanh(pi t/2): a rank-one
        # K plus a slowly decaying positive tail.  Depths 1 and 2 leave
        # positivity undecided and depth 3 decides it, bit for bit the
        # oracle.  The probe product is made once, at depth 1
        g = FunctionSum([TanhAffine(rate=1.0),
                         TanhAffine(rate=0.5, scale=5e-8)])
        op = build_nystrom_x(TanhAffine(rate=np.pi / 2), g, Grid(24.0, 1024))
        counted = _counted(op)
        theta, eps = _certified(counted)
        assert counted.widths == [16, 8, 20, 16, 16, 16, 16, 8]
        ref_theta, ref_eps = oracle_krylov(op)
        assert same_bits(theta, ref_theta) and eps == ref_eps
        rep = spectrum(op)
        assert rep.solver == "randomized" and rep.positive

    def test_uncertified_sketch_returns_none(self):
        # a tail too heavy to certify at any depth: the solve stops at the
        # 64-column budget, reading the probe product once
        m, lam = self._synthetic(1e-6)
        assert np.sum(np.abs(lam) > RANK_THRESHOLD) == 4
        assert _certified(m) is None
        assert m.widths == [8, 8, 10] + [w for c in range(16, 72, 8)
                                         for w in (8, c)]

    def test_sketch_certifies_without_tail(self):
        m, lam = self._synthetic(0.0)
        theta, eps = _certified(m)
        assert theta.size == 8
        assert eps <= RANK_THRESHOLD * np.max(np.abs(theta))
        top = np.sort(lam)[::-1]
        assert np.max(np.abs(theta[:3] - top[:3])) <= eps + 1e-14
        assert abs(theta[-1] - top[-1]) <= eps + 1e-14

    def test_undecided_sketch_returns_none(self, monkeypatch):
        # a positive tail at 1e-9: the rank certifies, but eps keeps
        # psd_error above POSITIVITY_TOL with no negative Ritz value at
        # every depth, so the solve can neither certify nor refute
        # positivity
        m, _ = self._synthetic(1e-9, top=(1.0, 0.8, 0.5, 0.3))
        assert _certified(m) is None
        # a Ritz value at -0.5 refutes it: the same tail keeps depth 1
        theta, eps = _certified(self._synthetic(1e-9)[0])
        assert POSITIVITY_TOL < eps <= RANK_THRESHOLD
        assert theta[-1] == pytest.approx(-0.5)
        # at a looser margin depth 1 is kept too: its rank certifies, and
        # the positivity margin alone sent it deeper
        monkeypatch.setattr(operators, "POSITIVITY_TOL", 1e-3)
        theta, eps = _certified(m)
        assert POSITIVITY_TOL < eps <= RANK_THRESHOLD and theta[-1] > 0
        assert theta.size == 8

    @pytest.mark.parametrize("case", ["synthetic", "moebius"])
    def test_widened_solve_keeps_the_wide_bits(self, case):
        # 5 or 6 significant eigenvalues: more than depth 1's 8 / 2, so it
        # reads no probes and depth 2 (16 columns) certifies, bit for bit
        # the oracle.  The moebius pair is the corpus's rank-five compose
        # config, a complex operator, whose Toeplitz products are counted
        if case == "synthetic":
            m, _ = self._synthetic(0.0, top=(1.0, 0.8, -0.5, 0.3, 0.2, -0.1))
            rank, widths = 6, [8, 8, 8, 16, 10]
        else:
            cfg = load_config(os.path.join(CONFIG_DIR,
                                           "compose-moebius-two-atom.json"))
            (f, g), cat = _pair(cfg), catalog()
            f, g = compose_pair(cat["moebius"], f, cat["sqrt-shift"], g)
            m = _counted(build_nystrom_x(f, g, Grid(24.0, 1024)))
            rank, widths = 5, [16, 8, 16, 16, 20]
        theta, eps = _certified(m)
        assert m.widths == widths and theta.size == 16
        assert _significant(theta).size == rank
        ref_theta, ref_eps = oracle_krylov(m)
        assert same_bits(theta, ref_theta) and eps == ref_eps

    def test_narrow_sketch_at_the_dense_cutoff(self):
        # N = 128, the smallest N the solve takes: depth 1 certifies the
        # rank-one Kato operator
        op = build_nystrom_x(*rank_one_pair(1.0), Grid(24.0, 128))
        counted = _counted(op)
        _certified(counted)
        assert counted.widths == [16, 8, 20]
        rep = spectrum(op)
        assert rep.solver == "randomized" and rep.eigenvalues.size == 8
        assert rep.numerical_rank == 1

    def test_verdict_near_the_boundary_matches_dense(self):
        # f = tanh(a t) at a = 0.9999 pi/2: positive, with a slowly
        # decaying spectrum that depth 3 (24 columns) certifies, with
        # dense's sign pattern
        op = build_nystrom_x(TanhAffine(rate=0.9999 * np.pi / 2),
                             TanhAffine(rate=1.0), Grid(24.0, 2048))
        rep, dense = spectrum(op), dense_spectrum(op)
        assert rep.solver == "randomized" and rep.eigenvalues.size == 24
        assert rep.positive and dense.positive
        assert rep.sign_pattern() == dense.sign_pattern() == (4, 0)

    @pytest.mark.parametrize("rate, cols, signs", [
        (0.999 * np.pi / 2, 32, (6, 0)), (2.0, 24, (1, 10))],
        ids=["inside", "outside"])
    def test_boundary_pairs_certify_without_the_matrix(self, rate, cols,
                                                       signs):
        # the rate family near and past Kato's a = pi/2 at N = 4096: six
        # significant eigenvalues decaying by ~0.45 a step at 0.999 pi/2,
        # eleven at a = 2, more than depth 1's 4, so both went dense
        # (3.3 s and 2.7 s).  The sign patterns are those dense eigvalsh
        # reads for the same pairs at N = 2048
        op = build_nystrom_x(TanhAffine(rate=rate), TanhAffine(rate=1.0),
                             Grid(24.0, 4096))
        rep = spectrum(op)
        assert rep.solver == "randomized" and rep.eigenvalues.size == cols
        assert "matrix" not in vars(op)
        assert rep.sign_pattern() == signs
        assert rep.positive == (signs[1] == 0)
        assert rep.residual_bound <= 1e-7 * rep.max_eig

    def test_full_spectrum_is_dense_eigvalsh(self, howland_op):
        # the dense fallback returns all N eigenvalues of eigvalsh, from
        # the parity split: within its Weyl bound of the full solve's
        rep = spectrum(howland_op)
        assert rep.solver == "dense"
        assert 0.0 < rep.residual_bound <= 1e-20 * rep.max_eig
        assert rep.eigenvalues.size == howland_op.n
        full = np.linalg.eigvalsh(howland_op.matrix)[::-1]
        assert np.max(np.abs(rep.eigenvalues - full)) <= (
            rep.residual_bound + 1e-14 * rep.max_eig)

    def test_howland_pair_falls_back_to_dense(self, howland_op):
        rep = spectrum(howland_op)
        assert rep.solver == "dense"
        assert rep.eigenvalues.size == 1024
        assert rep.numerical_rank > 100
        assert oracle_krylov(howland_op) is None

    def test_howland_sketch_applies_no_probes(self, howland_op):
        # every Ritz value is significant at depth 1 (8 of 8) and depth 2
        # (16 of 16), so the solve gives up there with no bound read:
        # Z of 16 columns, Toeplitz products of 16 + 8 + 16 + 16 columns,
        # where the ladder took 120
        counted = _counted(howland_op)
        assert _certified(counted) is None
        assert counted.widths == [16, 8, 16, 16]

    def test_spectrum_peak_memory(self, kato_op):
        # depth 1's products, and the probe product it keeps, stay under
        # nine N x 16 blocks of the operator's dtype, on a fresh copy
        # (FFT plans made by a first solve): the FFT of K W's 20 Toeplitz
        # columns holds about eight
        spectrum(dataclasses.replace(kato_op))
        op = dataclasses.replace(kato_op)
        tracemalloc.start()
        try:
            spectrum(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * op.n * 16 * op.dtype.itemsize

    @pytest.mark.parametrize("g, bare, margin", [
        (FunctionSum([TanhAffine(rate=1.0), Constant(1e4)]),
         TanhAffine(rate=1.0), 1e-12),
        # the second term's slowly decaying positive spectrum gives
        # depth 1 5 significant Ritz values and leaves positivity
        # undecided up to depth 6 (48 columns), with or without the offset
        (FunctionSum([TanhAffine(rate=1.0),
                      TanhAffine(rate=0.5, scale=1e-4, offset=1e4)]),
         FunctionSum([TanhAffine(rate=1.0), TanhAffine(rate=0.5, scale=1e-4)]),
         5e-11),
    ], ids=["constant-term", "offset-term"])
    def test_offset_inside_a_sum_leaves_no_rounding(self, g, bare, margin):
        # a sum differences its terms without their offsets, a Constant
        # being all offset, so K is the one without them, bit for bit.
        # With them, 1e4 eps of rounding entered K: both solves went dense,
        # with psd_error 1.7e-12 and 2.4e-12.  Both now certify, the
        # second at 48 columns with eps/max = 4.1e-11
        f, grid = TanhAffine(rate=np.pi / 2), Grid(24.0, 1024)
        op, ref = (build_nystrom_x(f, h, grid) for h in (g, bare))
        for a, b in zip(op._factors, ref._factors):
            assert np.array_equal(a, b)
        rep = spectrum(op)
        assert rep.solver == "randomized" and rep.positive
        assert rep.psd_error == spectrum(ref).psd_error < margin
        assert rep.sign_pattern() == dense_spectrum(op).sign_pattern()


def _howland_pair():
    return ArctanAffine(width=2.0), TanhAffine(rate=1.0)


class TestParitySplit:
    @staticmethod
    def _assert_matches_dense(rep, dense):
        # every eigenvalue within the Weyl bound (and rounding) of the
        # full solve's, with its rank, signs and verdict
        top = np.max(np.abs(dense.eigenvalues))
        assert rep.solver == "dense"
        assert rep.eigenvalues.size == dense.eigenvalues.size
        assert 0.0 < rep.residual_bound <= RANK_THRESHOLD * top
        assert np.all(np.abs(rep.eigenvalues - dense.eigenvalues)
                      <= rep.residual_bound + 1e-14 * top)
        assert rep.numerical_rank == dense.numerical_rank
        assert rep.sign_pattern() == dense.sign_pattern()
        assert rep.positive == dense.positive

    @staticmethod
    def _full_solve(monkeypatch, op):
        # the certified solve refused, so that the dense path runs
        monkeypatch.setattr(operators, "_certified", lambda m: None)
        return spectrum(op)

    def test_howland_splits_without_the_matrix(self):
        # odd f and g: two 512-blocks in place of the 1024 x 1024 solve,
        # coupled by row 0 only, ||b|| = 3.6e-22 max|lambda|
        op = build_nystrom_x(*_howland_pair(), Grid(24.0, 1024))
        assert operators._parity_split(op) is not None
        rep = spectrum(op)
        assert "matrix" not in vars(op)
        assert rep.residual_bound <= 1e-20 * rep.max_eig
        assert rep.numerical_rank == 229 and rep.positive
        self._assert_matches_dense(rep, dense_spectrum(op))

    def test_momentum_lattice_splits(self):
        # Howland's operator i[arctan(P/2), tanh Q] is, by the Fourier
        # transform, i[tanh P, arctan(Q/2)]: on the momentum route tanh
        # sits on the lattice, flat at -k_max, and the split applies there
        op = build_nystrom_p(*_howland_pair()[::-1], Grid(24.0, 1024))
        rep = spectrum(op)
        assert "matrix" not in vars(op)
        assert rep.numerical_rank > 50
        self._assert_matches_dense(rep, dense_spectrum(op))

    def test_kato_pair_splits_when_dense(self, monkeypatch, kato_op,
                                         kato_spectrum):
        # N = 2048 with the certified solve refused
        rep = self._full_solve(monkeypatch, kato_op)
        assert rep.residual_bound <= 1e-11 * rep.max_eig
        self._assert_matches_dense(rep, kato_spectrum)

    def _assert_full_solve(self, monkeypatch, op):
        rep = self._full_solve(monkeypatch, op)
        assert rep.solver == "dense" and rep.residual_bound == 0.0
        assert same_bits(rep.eigenvalues,
                         np.linalg.eigvalsh(op.matrix)[::-1])

    def test_g_without_parity_takes_the_full_solve(self, monkeypatch):
        f, _ = _howland_pair()
        op = build_nystrom_x(f, TanhAffine(rate=1.0, center=0.3),
                             Grid(24.0, 1024))
        assert not np.array_equal(op._factors.g[:0:-1], -op._factors.g[1:])
        self._assert_full_solve(monkeypatch, op)

    def test_complex_lattice_takes_the_full_solve(self, monkeypatch):
        op = build_nystrom_x(*_composed_pair(), Grid(24.0, 256))
        assert np.iscomplexobj(op)
        self._assert_full_solve(monkeypatch, op)

    @pytest.mark.parametrize("build, pair, grid", [
        # g = tanh is not flat at -L = -2
        (build_nystrom_x, _howland_pair(), Grid(2.0, 1024)),
        # arctan is not flat at -k_max: ||b|| = 1.5e-4 max|lambda|
        (build_nystrom_p, _howland_pair(), Grid(24.0, 1024)),
    ], ids=["howland-L2", "howland-momentum"])
    def test_coupled_border_takes_the_full_solve(self, monkeypatch, build,
                                                 pair, grid):
        # parity holds, but row 0 couples the blocks past the rule
        op = build(*pair, grid)
        g, _, d = op._factors
        assert np.array_equal(g[:0:-1], -g[1:])
        assert np.array_equal(d[:0:-1], d[1:])
        b = op._rows(0, np.empty((1, op.n)))[0, 1:]
        assert np.linalg.norm(b) > RANK_THRESHOLD * operator_two_norm(op)
        assert operators._parity_split(op) is None
        self._assert_full_solve(monkeypatch, op)


def _counted(op):
    """A copy of the operator, with nothing cached, that records in
    ``widths`` the width of every block its Toeplitz product T X takes."""
    copy, widths = dataclasses.replace(op), []

    def toeplitz(x):
        widths.append(x.shape[1])
        return DiscretizedOperator._toeplitz(copy, x)

    object.__setattr__(copy, "_toeplitz", toeplitz)
    object.__setattr__(copy, "widths", widths)
    return copy


def _counted_qr(monkeypatch) -> list:
    """A list that grows by one at each np.linalg.qr call."""
    calls, qr = [], np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def _fresh_draws(n, k):
    """The real N x k sketch of a fresh default_rng((N, 1)) and the real
    probes of a fresh default_rng(N)."""
    return (np.random.default_rng((n, 1)).standard_normal((n, k)),
            np.random.default_rng(n).standard_normal((n, 10)))


def _realified(m):
    if np.max(np.abs(m.imag)) < 1e-14 * max(np.max(np.abs(m.real)), 1e-300):
        m = np.ascontiguousarray(m.real)
    return m


def _dense_nystrom(fn, coords, vals, step):
    """Dense difference quotient times an N x N gather of the 2N-1
    Toeplitz lattice values ``vals``, in complex arithmetic."""
    n = coords.size
    values = np.asarray(fn(coords), dtype=float)
    den = coords[:, None] - coords[None, :]
    np.fill_diagonal(den, 1.0)
    dq = (values[:, None] - values[None, :]) / den
    np.fill_diagonal(dq, np.asarray(fn.derivative(coords), dtype=float))
    idx = np.arange(n)
    return dq * vals[(idx[None, :] - idx[:, None]) + (n - 1)] / SQRT_2PI * step


def _raw_lattice(profile, n, step):
    # complex whatever the profile returns: the references below take
    # their parts
    return profile.real_values(step * np.arange(-(n - 1), n)).astype(complex)


def _dense_nystrom_reference(fn, coords, profile, step):
    """Reference Nystrom build on the conjugate-symmetrized lattice, and
    max|m - m^H| of the matrix built on the raw lattice."""
    vals = _raw_lattice(profile, coords.size, step)
    raw = _dense_nystrom(fn, coords, vals, step)
    defect = float(np.max(np.abs(raw - raw.conj().T)))
    sym = 0.5 * (vals + vals[::-1].conj())
    return _realified(_dense_nystrom(fn, coords, sym, step)), defect


def _dense_commutator(fn, coords, profile, step):
    """Reference build in the commutator form t(j-i) (g_i - g_j) + D:
    t(m) = v(m) / (sqrt(2 pi) (-m)) of the raw lattice, divided part by
    part, then antisymmetrized, with t(0) = 0, and
    D = step g'(c_i) Re v(0) / sqrt(2 pi), gathered N x N in complex
    arithmetic."""
    n = coords.size
    values = np.asarray(fn(coords), dtype=float)
    vals = _raw_lattice(profile, n, step)
    den = SQRT_2PI * -np.arange(-(n - 1), n)
    den[n - 1] = np.inf
    t = np.empty_like(vals)
    t.real, t.imag = vals.real / den, vals.imag / den
    t = 0.5 * (t - t[::-1].conj())
    t[n - 1] = 0.0
    idx = np.arange(n)
    m = t[(idx[None, :] - idx[:, None]) + (n - 1)] * (
        values[:, None] - values[None, :])
    d = (np.asarray(fn.derivative(coords), dtype=float) * vals[n - 1].real
         * (1.0 / SQRT_2PI) * step)
    m[idx, idx] = d
    return _realified(m)


def _assert_matches_reference(op, fn, coords, step):
    # bit for bit against the commutator form, and at rounding level
    # against the difference quotient it rewrites
    ref = _dense_commutator(fn, coords, op.profile, step)
    old, defect = _dense_nystrom_reference(fn, coords, op.profile, step)
    assert op.matrix.dtype == ref.dtype == old.dtype
    assert np.array_equal(op.matrix, ref)
    assert np.array_equal(op.matrix, op.matrix.conj().T)
    scale = 4 * np.finfo(float).eps * np.max(np.abs(ref))
    assert np.max(np.abs(op.matrix - old)) <= scale
    assert abs(op.hermiticity_defect - defect) <= scale


def _composed_pair():
    cat = catalog()
    return compose_pair(cat["log-shift"], TanhAffine(rate=np.pi / 2),
                        cat["identity"], TanhAffine(rate=1.0))


def _composed_g_pair():
    # the momentum route's quadrature case: g' has no closed form
    cat = catalog()
    return compose_pair(cat["identity"], TanhAffine(rate=np.pi / 2),
                        cat["log-shift"], TanhAffine(rate=1.0))


def _raw_build(route, pair, grid):
    """The matrix of ``route`` built from its unsymmetrized lattice or
    circulant column."""
    f, g = pair
    if route == "direct":
        gx = np.asarray(g(grid.x), dtype=float)
        fk = np.asarray(f(grid.k), dtype=float)
        m = circulant(1j * np.fft.ifft(np.fft.ifftshift(fk)))
        return m * (gx[None, :] - gx[:, None])
    if route == "nystrom-x":
        fn, coords, step, prof = g, grid.x, grid.dx, fourier_deriv(f, grid)
    else:
        fn, coords, step, prof = f, grid.k, grid.dk, fourier_deriv(g, grid)
    return _dense_nystrom(fn, coords, _raw_lattice(prof, grid.n, step), step)


_BUILDS = {"nystrom-x": build_nystrom_x, "nystrom-p": build_nystrom_p,
           "direct": build_direct}


@pytest.mark.parametrize("route, pair, grid", [
    ("nystrom-x", _composed_pair(), Grid(24.0, 256)),
    ("nystrom-p", _composed_g_pair(), Grid(24.0, 256)),
    ("direct", rank_one_pair(1.0), Grid(24.0, 256)),
    ("direct", (Sine(frequency=1.0), Sine(frequency=2 * np.pi)),
     Grid(16.0, 1024)),
    ("nystrom-x", rank_one_pair(1.0, t1=3.0), Grid(24.0, 256)),
], ids=["composed-x", "composed-p", "kato-direct", "zero-pair-direct",
        "rank-one-t1-complex"])
class TestHermitianByConstruction:
    def test_matches_factor_reference_bit_for_bit(self, route, pair, grid):
        # t(j-i) (g_i - g_j) with d on the diagonal, broadcast N x N and
        # multiplied part by part: the same bits, signed zeros included
        op = _BUILDS[route](*pair, grid)
        g, t, d = op._factors
        n = op.n
        idx = np.arange(n)
        lat = t[idx[None, :] - idx[:, None] + n - 1]
        gdiff = g[:, None] - g[None, :]
        ref = np.empty((n, n), dtype=t.dtype)
        if np.iscomplexobj(t):
            ref.real, ref.imag = lat.real * gdiff, lat.imag * gdiff
        else:
            ref[...] = lat * gdiff
        ref[idx, idx] = d
        assert op.matrix.dtype == t.dtype
        assert np.array_equal(op.matrix.view(np.uint64), ref.view(np.uint64))
        assert op.max_abs == np.max(np.abs(ref))

    def test_matches_symmetrized_raw_matrix(self, route, pair, grid):
        # symmetrizing the lattice or the circulant column, in place of
        # the N x N matrix, moves entries at rounding level only
        op = _BUILDS[route](*pair, grid)
        raw = _raw_build(route, pair, grid)
        old = _realified(0.5 * (raw + raw.conj().T))
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        assert op.matrix.dtype == old.dtype
        assert np.max(np.abs(op.matrix - old)) <= (
            4 * np.finfo(float).eps * np.max(np.abs(op.matrix)))

    def test_defect_is_measured_on_raw_matrix(self, route, pair, grid):
        op = _BUILDS[route](*pair, grid)
        raw = _raw_build(route, pair, grid)
        scale = np.max(np.abs(op.matrix))
        assert type(op.hermiticity_defect) is float
        assert abs(op.hermiticity_defect
                   - np.max(np.abs(raw - raw.conj().T))) <= (
            4 * np.finfo(float).eps * scale)
        # max|K| of the periodic zero pair is ~7e-15: a bound such as
        # ptp(g) max|c(m) + conj c(-m)| reads 7.5e-17 there and fails
        assert op.hermiticity_defect < 1e-12 * scale


@pytest.mark.parametrize("route, pair, grid", [
    ("nystrom-x", rank_one_pair(1.0), Grid(24.0, 256)),
    ("nystrom-x", _composed_pair(), Grid(24.0, 256)),
    ("nystrom-p", rank_one_pair(1.0), Grid(24.0, 256)),
    ("nystrom-p", _composed_g_pair(), Grid(24.0, 256)),
    ("direct", rank_one_pair(1.0), Grid(24.0, 256)),
    ("direct", (Sine(frequency=1.0), Sine(frequency=np.pi / 8)),
     Grid(16.0, 256)),
    # K does not see a constant added to the multiplier; the apply must
    # not either, though its two terms then nearly cancel
    ("nystrom-x", (TanhAffine(rate=np.pi / 2),
                   TanhAffine(rate=1.0, offset=1e3)), Grid(24.0, 256)),
    ("nystrom-p", (TanhAffine(rate=np.pi / 2, offset=1e3),
                   TanhAffine(rate=1.0)), Grid(24.0, 256)),
], ids=["kato-x", "composed-x", "kato-p", "composed-p", "kato-direct",
        "realified-direct", "offset-g-x", "offset-f-p"])
class TestFactoredApply:
    def test_apply_matches_matrix(self, route, pair, grid):
        op = _BUILDS[route](*pair, grid)
        assert op.shape == op.matrix.shape
        assert op.dtype == op.matrix.dtype
        x = _gaussian_block(op.n, 12, np.iscomplexobj(op.matrix))
        assert np.max(np.abs(op @ x - op.matrix @ x)) <= (
            1e-13 * np.max(np.abs(op.matrix)))

    def test_lattice_is_antisymmetric_bit_for_bit(self, route, pair, grid):
        # t(-m) = -conj t(m) makes t(j-i) (g_i - g_j) Hermitian bit for bit
        t = _BUILDS[route](*pair, grid)._factors.t
        assert np.array_equal(t[::-1], -t.conj())
        assert t[grid.n - 1] == 0.0

    def test_build_scan_finds_max_abs(self, route, pair, grid):
        # the row-block scan's max|K|, realified matrices included
        op = _BUILDS[route](*pair, grid)
        assert op.max_abs == np.max(np.abs(op.matrix))

    def test_trace_is_sum_of_diagonal_factor(self, route, pair, grid):
        op = _BUILDS[route](*pair, grid)
        assert op.trace() == float(np.sum(op._factors.d))
        ref = np.real(np.trace(op.matrix))
        assert abs(op.trace() - ref) <= op.n * np.spacing(abs(ref))

    @pytest.mark.parametrize("k", [1, 25])
    @pytest.mark.parametrize("complex_", [False, True],
                             ids=["real-q", "complex-q"])
    def test_rayleigh_matches_matrix(self, route, pair, grid, complex_, k):
        # Q^H K Q from k Toeplitz columns (25 take two blocks) against
        # the GEMMs on the matrix, and equal to its conjugate transpose:
        # the real part bit for bit, the imaginary part but for a zero's
        # sign
        op = _BUILDS[route](*pair, grid)
        q = np.linalg.qr(_gaussian_block(op.n, k, complex_))[0]
        b = op._rayleigh(q)
        assert b.shape == (k, k)
        assert b.real.tobytes() == b.real.T.tobytes()
        assert np.array_equal(b.imag, -b.imag.T)
        assert np.max(np.abs(b - q.conj().T @ op.matrix @ q)) <= (
            1e-13 * np.max(np.abs(op.matrix)))

    def test_vector_apply_is_the_one_column_apply(self, route, pair, grid):
        op = _BUILDS[route](*pair, grid)
        for complex_ in (False, True):
            v = _gaussian_block(op.n, 1, complex_)[:, 0]
            kv = op @ v
            assert kv.shape == (op.n,)
            assert same_bits(kv, (op @ v[:, None])[:, 0])
            assert np.max(np.abs(kv - op.matrix @ v)) <= (
                1e-13 * np.max(np.abs(op.matrix)))



class TestProbeProduct:
    """One probe product (W, K W) per operator, read by every bound."""

    def test_order_of_reads_keeps_the_bits(self, grid_mid):
        # the solve and the model's norm bound read the same (W, K W)
        # whichever makes it
        ex = rank_three_example(1.0, grid_mid)
        first, second = (build_nystrom_x(ex.f, ex.g, grid_mid)
                         for _ in range(2))
        rep_a, bound_a = spectrum(first), ex.model.error_bound(first)
        bound_b, rep_b = ex.model.error_bound(second), spectrum(second)
        assert same_bits(rep_a.eigenvalues, rep_b.eigenvalues)
        assert rep_a.residual_bound == rep_b.residual_bound
        assert bound_a == bound_b

    @pytest.mark.parametrize("complex_", [False, True],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("power", [-40, 995])
    def test_norm_bound_scales_by_powers_of_two(self, complex_, power):
        # bit for bit; near 1e300 (2^995) the squares overflowed and the
        # bound read inf
        y = operators._probes(64, complex_)
        bound = operators._norm_bound(y * np.ldexp(1.0, power))
        assert bound == np.ldexp(operators._norm_bound(y), power)

    def test_norm_bound_of_subnormal_entries(self):
        # y 2^-1060 keeps about 15 bits an entry; unscaled, its squares
        # read 0, and so did the bound
        y = operators._probes(64, False)
        bound = operators._norm_bound(y * 2.0 ** -1060)
        assert np.ldexp(bound, 1060) == pytest.approx(
            operators._norm_bound(y), rel=1e-3)

    @pytest.mark.parametrize("t1", [0.0, 3.0], ids=["real", "complex"])
    def test_cache_holds_the_probes_and_their_product(self, t1):
        # W and K W of the operator's dtype, read-only, and nothing else
        # but their headers: no FFT buffer outlives the product
        warm, op = (build_nystrom_x(*rank_one_pair(1.0, t1=t1),
                                    Grid(24.0, 1024)) for _ in range(2))
        assert np.iscomplexobj(op) == (t1 != 0)
        warm._probed    # numpy's first draws and transforms of this size
        op @ np.zeros((op.n, 1))    # the FFT kernel, made on first apply
        tracemalloc.start()
        try:
            w, kw = op._probed
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        size = 2 * _BOUND_PROBES * op.n * op.dtype.itemsize
        assert size <= held <= size + 1024
        assert w.dtype == kw.dtype == op.dtype
        assert w.shape == kw.shape == (op.n, _BOUND_PROBES)
        assert op._probed[1] is kw
        with pytest.raises(ValueError):
            kw[0, 0] = 0.0


class _SkewedProfile:
    """The Kato profile times 1 + 1e-3 tanh(u): real, but not even, so
    the raw lattice is not exactly antisymmetric."""

    def __init__(self, f, grid):
        self._profile = fourier_deriv(f, grid)

    def real_values(self, u):
        return self._profile.real_values(u) * (1 + 1e-3 * np.tanh(u))


def _skewed_build(f, g, grid):
    return build_nystrom_x(f, g, grid, profile=_SkewedProfile(f, grid))


def _rank3_pair():
    ex = rank_three_example(1.0, Grid(24.0, 256))
    return ex.f, ex.g


@pytest.mark.parametrize("build, pair", [
    (build_nystrom_x, rank_one_pair(1.0)),
    (build_nystrom_p, rank_one_pair(1.0)),
    (build_nystrom_x, rank_one_pair(0.7, c1=2.0, c2=0.5, t2=1.0, d2=3.0)),
    (build_nystrom_x, _rank3_pair()),
    (_skewed_build, rank_one_pair(1.0)),
], ids=["kato-x", "kato-p", "rank-one", "rank-three", "skewed-lattice"])
class TestLatticeReadPeaks:
    """A real lattice's max|K| and Hermiticity defect are read off the
    lattice and the lag spread on first read, not scanned."""

    def test_equal_a_scan_of_the_matrix(self, build, pair):
        grid = Grid(24.0, 256)
        op = build(*pair, grid)
        assert op.dtype == np.float64
        assert op.max_abs == np.max(np.abs(op.matrix))
        # the raw matrix's defect, entry by entry:
        # |t(j-i) + t(i-j)| |g_i - g_j| plus the raw diagonal's
        delta, diag_defect = op._raw_defect
        g, n = op._factors.g, op.n
        scan = diag_defect
        if delta is not None:
            idx = np.arange(n)
            scan = max(scan, float(np.max(
                delta[idx[None, :] - idx[:, None] + n - 1]
                * np.abs(g[:, None] - g[None, :]))))
        assert op.hermiticity_defect == scan
        assert (op.hermiticity_defect > 0.0) == (build is _skewed_build)

    def test_read_after_the_build(self, build, pair, monkeypatch):
        # the build's finiteness test is O(N): no lag spread, no rows
        def quadratic(*args):
            raise AssertionError("O(N^2) pass at build")

        with monkeypatch.context() as m:
            m.setattr(operators, "_lag_spread", quadratic)
            m.setattr(operators.DiscretizedOperator, "_rows", quadratic)
            op = build(*pair, Grid(24.0, 256))
        assert "matrix" not in vars(op) and "_peaks" not in vars(op)
        peak = op.max_abs
        assert "_peaks" in vars(op) and "matrix" not in vars(op)
        assert peak == np.max(np.abs(op.matrix))


def test_realified_matrix_has_real_lattice():
    # the two-sine circulant's antisymmetrized lattice has an imaginary
    # part at 3e-17 of its real part: the matrix is realified, and the
    # lattice the apply transforms with it.  The realify test reads the
    # lattice before assembly, so no complex N x N array is made: the
    # real one and O(N) temporaries (numpy's fixed 64 kB ufunc buffers
    # are 1/16 N^2 B here, but 2 N^2 B at N = 256)
    n = 1024
    tracemalloc.start()
    try:
        op = build_direct(Sine(frequency=1.0), Sine(frequency=np.pi / 8),
                          Grid(16.0, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * n * n
    assert op.matrix.dtype == op._factors.t.dtype == op.dtype == np.float64


def _scanned_peaks(g, t, d, delta, diag_defect):
    """max|K|, the raw defect and max|Im K| of t(j-i) (g_i - g_j) + d_i
    delta_ij, entry by entry over the N x N matrix."""
    n = g.size
    idx = np.arange(n)
    lag = idx[None, :] - idx[:, None] + n - 1
    with np.errstate(all="ignore"):
        diff = g[:, None] - g[None, :]
        k = t.real[lag] * diff + 1j * (t.imag[lag] * diff)
        k[idx, idx] = d
        defect = diag_defect
        if delta is not None:
            defect = max(defect, float(np.max(delta[lag] * np.abs(diff))))
        return (float(np.max(np.abs(k))), defect,
                float(np.max(np.abs(k.imag))))


def _lag_spread_calls(monkeypatch):
    """A list that grows by one at each call of `operators._lag_spread`."""
    calls, spread = [], operators._lag_spread

    def counted(*args):
        calls.append(args[-1])
        return spread(*args)

    monkeypatch.setattr(operators, "_lag_spread", counted)
    return calls


class TestLatticePeaksByLagBlocks:
    """max|K|, the defect and max|Im K| read only the lag blocks whose
    bound can win, and equal a scan of the N x N entries bit for bit."""

    @pytest.mark.parametrize("build, pair", [
        (build_direct, rank_one_pair(1.0)),
        (build_nystrom_x, _composed_pair()),
        (build_nystrom_x, rank_one_pair(1.0, t1=3.0)),
        (build_nystrom_p, _composed_g_pair()),
    ], ids=["direct-kato", "composed", "rank-one-t1", "composed-momentum"])
    def test_complex_lattice_equals_a_scan(self, build, pair, monkeypatch):
        seen = []

        def kept(*args):
            seen.append((args, peaks(*args)))
            return seen[-1][1]

        peaks = operators._lattice_peaks
        monkeypatch.setattr(operators, "_lattice_peaks", kept)
        op = build(*pair, Grid(24.0, 512))
        (args, got), = seen
        assert np.iscomplexobj(args[1])
        scan = _scanned_peaks(*args)
        assert got == scan
        assert (op.max_abs, op.hermiticity_defect) == scan[:2]
        # the realify decision of the build
        assert (op.dtype == np.float64) == (scan[2] < 1e-14 * scan[0])

    def test_overflowing_spread_reads_every_block(self, monkeypatch):
        # max g - min g overflows: no bound holds, every block is read,
        # and the inf and NaN entries come out as a scan's
        n = 512
        calls = _lag_spread_calls(monkeypatch)
        g = np.where(np.arange(n) % 2, 1e308, -1e308)
        m = np.arange(1 - n, n)
        t = np.where(m == 0, 0.0, 1.0 / (m + 0.5j))
        delta = np.abs(np.sin(m)) * 1e-16
        d = np.linspace(-1.0, 1.0, n)
        for lattice in (t, np.where(m == 7, 0.0, t)):
            calls.clear()
            with np.errstate(all="ignore"):
                got = operators._lattice_peaks(g, lattice, d, delta, 0.0)
            assert sorted(calls) == list(range(0, n, 64))
            np.testing.assert_equal(
                got, _scanned_peaks(g, lattice, d, delta, 0.0))
        assert np.isinf(got[1]) and np.isnan(got[0])

    def test_direct_kato_reads_few_blocks(self, monkeypatch):
        # the lags near 0 and near N hold the peaks; a bound sorts out
        # all the others
        calls = _lag_spread_calls(monkeypatch)
        op = build_direct(*rank_one_pair(1.0), Grid(24.0, 4096))
        assert np.isfinite(op.max_abs)
        assert 0 < len(calls) <= 8
        assert len(set(calls)) == len(calls)


def _smear_windows(grid):
    """``route_agreement``'s unit-mass Gaussian windows of width 4 dx,
    centred 0.5 apart over |x| <= L/2, one a row."""
    width, lim = 4 * grid.dx, 0.5 * grid.half_width
    centers = np.arange(-lim, lim + 1e-12, 0.5)
    return np.exp(-(grid.x[None, :] - centers[:, None]) ** 2
                  / (2 * width ** 2)) / (np.sqrt(2 * np.pi) * width)


def _gaussian_block(n, k, complex_):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, k))
    return x + 1j * rng.standard_normal((n, k)) if complex_ else x


class TestInPlaceBuild:
    @pytest.mark.parametrize("pair", [
        rank_one_pair(1.0),
        rank_one_pair(1.0, t1=3.0),
        _composed_pair(),
    ], ids=["rank-one", "rank-one-t1-complex", "composed-quadrature"])
    def test_position_route_matches_reference(self, pair):
        grid = Grid(24.0, 256)
        op = build_nystrom_x(*pair, grid)
        _assert_matches_reference(op, pair[1], grid.x, grid.dx)

    def test_momentum_route_matches_reference(self, kato_pair):
        grid = Grid(24.0, 256)
        op = build_nystrom_p(*kato_pair, grid)
        _assert_matches_reference(op, kato_pair[0], grid.k, grid.dk)

    def test_momentum_quadrature_route_matches_reference(self):
        grid = Grid(24.0, 256)
        pair = _composed_g_pair()
        op = build_nystrom_p(*pair, grid)
        assert op.hermiticity_defect > 0.0
        _assert_matches_reference(op, pair[0], grid.k, grid.dk)

    @pytest.mark.parametrize("pair", [
        rank_one_pair(1.0),
        rank_one_pair(1.0, t1=3.0),
    ], ids=["real", "complex"])
    def test_nonfinite_lattice_value_rejected(self, pair):
        # the row-block scan sees the NaN row that one lattice value
        # makes; spectrum does not look again
        class NaNProfile:
            def real_values(self, u):
                vals = fourier_deriv(pair[0], grid).real_values(u)
                vals[vals.size // 3] = np.nan
                return vals

        grid = Grid(24.0, 256)
        for build in (build_nystrom_x, build_nystrom_p):
            with pytest.raises(AccuracyError):
                build(*pair, grid, profile=NaNProfile())

    def test_nonfinite_direct_matrix_rejected(self):
        # g_j - g_i overflows to inf, and inf * 0 is NaN on the diagonal
        f, g = TanhAffine(rate=np.pi / 2), TanhAffine(scale=1e308)
        with np.errstate(all="ignore"), pytest.raises(AccuracyError):
            build_direct(f, g, Grid(24.0, 256))

    def test_overflowing_real_entry_rejected_at_build(self, monkeypatch):
        # g_i - g_j overflows on a real lattice: the O(N) bound
        # max|t| (max g - min g) is not finite, so the build reads the
        # exact peaks off the lattice, and no row of K is written
        def written(*args):
            raise AssertionError("the build wrote rows of K")

        monkeypatch.setattr(operators.DiscretizedOperator, "matrix",
                            property(written))
        monkeypatch.setattr(operators.DiscretizedOperator, "_rows", written)
        f, g = TanhAffine(rate=np.pi / 2), TanhAffine(scale=1e308)
        grid = Grid(24.0, 256)
        assert not np.iscomplexobj(fourier_deriv(f, grid).real_values(
            grid.x))
        with np.errstate(all="ignore"), pytest.raises(AccuracyError):
            build_nystrom_x(f, g, grid)

    def test_real_profile_builds_real(self, kato_pair):
        # the rank-one pair has a real lattice profile: real arithmetic
        # throughout, with no complex N x N array on the way
        n = 1024
        grid = Grid(24.0, n)
        tracemalloc.start()
        try:
            op = build_nystrom_x(*kato_pair, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matrix.dtype == np.float64
        assert peak <= 2.5 * n * n * 8

    def test_row_blocked_difference_quotient_peak_memory(self, kato_pair):
        # the difference quotient is divided one row block at a time: no
        # second N x N array beside it
        n = 1024
        grid = Grid(24.0, n)
        tracemalloc.start()
        try:
            build_nystrom_x(*kato_pair, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8


@st.composite
def closed_form_functions(draw):
    def term():
        center = draw(st.floats(-2.0, 2.0))
        scale = draw(st.floats(0.2, 2.0))
        if draw(st.booleans()):
            return TanhAffine(rate=draw(st.floats(0.3, 3.0)), center=center,
                              scale=scale)
        return ArctanAffine(width=draw(st.floats(0.5, 3.0)), center=center,
                            scale=scale)
    terms = [term() for _ in range(draw(st.integers(1, 3)))]
    return terms[0] if len(terms) == 1 else FunctionSum(terms)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(closed_form_functions(), closed_form_functions(),
       st.sampled_from([64, 128]))
def test_builds_match_dense_reference(f, g, n):
    grid = Grid(12.0, n)
    _assert_matches_reference(build_nystrom_x(f, g, grid), g, grid.x, grid.dx)
    _assert_matches_reference(build_nystrom_p(f, g, grid), f, grid.k, grid.dk)


class TestTraceIdentity:
    def test_kato_pair(self, kato_op):
        tc = trace_identity_check(kato_op)
        assert tc.rhs == pytest.approx(2 / np.pi, rel=1e-15)
        assert tc.rel_error < 1e-6

    def test_catalog_pairs(self, grid_mid):
        pairs = [
            rank_one_pair(0.7, c1=0.5, c2=1.2, d1=0.3),
            (TanhMeasure([-1.0, 1.0], [0.5, 0.5], alpha=1.0),
             TanhMeasure([0.0], [0.8], alpha=np.pi / 2)),
        ]
        for f, g in pairs:
            tc = trace_identity_check(build_nystrom_x(f, g, grid_mid))
            assert tc.rel_error < 1e-6

    def test_direct_route_rejected(self, grid_small):
        op = build_direct(*rank_one_pair(1.0), grid_small)
        with pytest.raises(RouteMismatchError):
            trace_identity_check(op)

    def test_constant_pair_trivial_identity(self, grid_small):
        op = build_nystrom_x(Constant(1.0), TanhAffine(rate=1.0), grid_small)
        tc = trace_identity_check(op)
        assert tc.lhs == 0.0 and tc.rhs == 0.0 and tc.rel_error == 0.0

    def test_momentum_route_constant_gives_zero(self, grid_small):
        op = build_nystrom_p(Constant(0.7), TanhAffine(rate=1.0), grid_small)
        assert np.max(np.abs(op.matrix)) < 1e-16


@pytest.fixture(scope="module")
def p_op(grid_std):
    # pair with f' = sech^2 so exponential shifts up to |Im| < 2 work
    f = TanhAffine(rate=1.0)
    g = TanhAffine(rate=np.pi / 2)
    return build_nystrom_p(f, g, grid_std)


@pytest.fixture(scope="module")
def composed_p_op(grid_mid):
    # f' has no closed form: the quadrature profile fits its half-width
    return build_nystrom_p(*_composed_pair(), grid_mid)


class TestMomentumRoute:
    def test_diagonal_identity(self, p_op, grid_std):
        diag = np.real(np.diag(p_op.matrix)) / grid_std.dk
        fp = p_op.f.derivative(grid_std.k)
        target = (p_op.g.variation / (2 * np.pi)) * fp
        mask = np.abs(target) > 1e-12 * np.max(np.abs(target))
        rel = np.max(np.abs(diag[mask] - target[mask]) / np.abs(target[mask]))
        assert rel < 1e-8

    def test_trace_identity(self, p_op):
        assert trace_identity_check(p_op).rel_error < 1e-6

    def test_same_spectrum_as_x_route(self, p_op, grid_std):
        op_x = build_nystrom_x(p_op.f, p_op.g, grid_std)
        ex = spectrum(op_x).eigenvalues
        ep = spectrum(p_op).eigenvalues
        top = np.abs(ex).max()
        keep = np.abs(ex) > 1e-8 * top
        assert np.allclose(ex[keep], ep[:keep.sum()], rtol=1e-6, atol=1e-12)

    def test_swap_symmetry(self, grid_std):
        # momentum operator of (f, g) is the position operator of
        # (-g(-.), f) after the Fourier flip
        from poscomm import ReflectedNegated
        f = TanhAffine(rate=1.0, center=0.5)
        g = TanhAffine(rate=np.pi / 2, center=-0.3)
        op_p = build_nystrom_p(f, g, grid_std)
        op_swapped = build_nystrom_x(ReflectedNegated(g), f, grid_std)
        a = spectrum(op_p).eigenvalues
        b = spectrum(op_swapped).eigenvalues
        top = np.abs(a).max()
        keep = np.abs(a) > 1e-8 * top
        assert np.allclose(a[keep], b[:keep.sum()], rtol=1e-6, atol=1e-12)

    def test_shifted_trace_real_arguments(self, p_op):
        prof_f = lambda u: np.pi * u / np.sinh(np.pi * u / 2) / SQRT_2PI
        for sep in (0.5, 1.0, 2.0, -1.3):
            val = shifted_trace(p_op, sep, 0.0)
            assert val.real == pytest.approx(prof_f(-sep).real
                                             if sep else 2 / SQRT_2PI,
                                             rel=1e-6)
            assert abs(val.imag) < 1e-12

    def test_shifted_trace_zero_separation(self, p_op):
        val = shifted_trace(p_op, 0.0, 0.0)
        assert val.real == pytest.approx(2 / SQRT_2PI, rel=1e-8)

    def test_shifted_trace_imaginary(self, p_op):
        for y0 in (0.2, 0.4, 0.8):
            val = shifted_trace(p_op, 0.0, 2j * y0)   # y - x = 2i y0
            oracle = quad(lambda t: np.exp(2 * y0 * t) / np.cosh(t) ** 2,
                          -80, 80, limit=400)[0] / SQRT_2PI
            assert val.real == pytest.approx(oracle, rel=1e-5)

    def test_shifted_trace_divergence_guard(self, p_op):
        with pytest.raises(DivergenceError):
            shifted_trace(p_op, 0.0, 2.5j)

    def test_route_guard(self, kato_op):
        with pytest.raises(RouteMismatchError):
            shifted_trace(kato_op, 0.0, 0.0)

    def test_vanishing_variation_raises(self):
        # g = tanh x - tanh(x - 1) has [g] = 0, which the trace divides by
        g = FunctionSum([TanhAffine(rate=1.0),
                         TanhAffine(rate=1.0, center=1.0, scale=-1.0)])
        op = build_nystrom_p(TanhAffine(rate=np.pi / 2), g, Grid(24.0, 256))
        with pytest.raises(NotApplicableError):
            shifted_trace(op, 0.5, 0.0)

    def test_quadrature_profile_half_width(self, composed_p_op):
        # f' = (pi/2) sech^2(pi t/2) / (tanh(pi t/2) + 2) decays like
        # exp(-pi|t|) with constants 2pi/3 and 2pi on its two tails
        prof = fourier_deriv(composed_p_op.f, composed_p_op.grid)
        assert prof.route == "fft"
        assert prof.imag_half_width == pytest.approx(np.pi, abs=1e-6)
        with pytest.raises(DivergenceError):
            shifted_trace(composed_p_op, 0.0, 3.5j)

    @pytest.mark.parametrize("w", [0.5, 0.3j, 1j])
    def test_shifted_trace_matches_quadrature_profile(self, w, composed_p_op):
        prof = fourier_deriv(composed_p_op.f, composed_p_op.grid)
        assert abs(shifted_trace(composed_p_op, 0.0, w) - prof(w)) <= 1e-12

    def test_quadrature_g_matches_position_route(self):
        # the momentum lattice reaches twice the grid's Nyquist frequency;
        # g' sampled at dx/2 keeps the quadrature ghat alias-free there
        # (sampled at dx, min/max read -6.3e-3)
        f, g = _composed_g_pair()
        grid = Grid(24.0, 1024)
        op_p = build_nystrom_p(f, g, grid)
        assert op_p.profile.route == "fft"
        rp, rx = spectrum(op_p), spectrum(build_nystrom_x(f, g, grid))
        assert abs(rp.min_eig / rp.max_eig
                   - rx.min_eig / rx.max_eig) <= 1e-13
        assert rp.max_eig == pytest.approx(rx.max_eig, rel=1e-13)

    def test_kato_pair_at_n4096(self, kato_pair):
        # the momentum lattice reaches pi|u|/2 = 842 in the sinh of fhat and
        # rate*|xi| = 421 in the cosh of f' on the diagonal, both past
        # their overflow points; RuntimeWarnings are errors here
        grid = Grid(24.0, 4096)
        op = build_nystrom_p(*kato_pair, grid)
        rep = spectrum(op)
        assert rep.solver == "randomized"
        assert rep.numerical_rank == 1
        assert rep.max_eig == pytest.approx(2 / np.pi, rel=1e-14)
        assert trace_identity_check(op).rel_error < 1e-14
        diag = np.diag(op.matrix) / grid.dk
        target = (op.g.variation / (2 * np.pi)) * op.f.derivative(grid.k)
        mask = np.abs(target) > 1e-12 * np.max(np.abs(target))
        assert np.max(np.abs(diag[mask] - target[mask])
                      / np.abs(target[mask])) < 1e-15


def _direct_fft_of_identity(f, g, grid):
    """Reference direct build: f(P) as the FFT of the identity matrix."""
    gx = np.asarray(g(grid.x), dtype=float)
    fk = np.asarray(f(grid.k), dtype=float)
    spec = np.fft.fft(np.eye(grid.n), axis=0)
    fmat = np.fft.ifft(np.fft.ifftshift(fk)[:, None] * spec, axis=0)
    m = 1j * fmat * (gx[None, :] - gx[:, None])
    return 0.5 * (m + m.conj().T)


class TestDirectRoute:
    @pytest.mark.parametrize("pair, grid", [
        (rank_one_pair(1.0), Grid(24.0, 256)),
        ((Sine(frequency=1.0), Sine(frequency=np.pi / 8)), Grid(16.0, 256)),
    ], ids=["kato", "two-sine"])
    def test_circulant_matches_fft_of_identity(self, pair, grid):
        op = build_direct(*pair, grid)
        ref = _direct_fft_of_identity(*pair, grid)
        scale = np.max(np.abs(op.matrix))
        assert scale > 0.1
        assert np.max(np.abs(op.matrix - ref)) <= 1e-14 * scale

    def test_trace_exactly_zero(self, grid_mid):
        op = build_direct(*rank_one_pair(1.0), grid_mid)
        assert op.trace() == 0.0

    def test_periodic_zero_pair(self):
        g = Grid(16.0, 1024)
        op = build_direct(Sine(frequency=1.0),
                          Sine(frequency=2 * np.pi), g)
        assert operator_two_norm(op) < 1e-8

    def test_incommensurate_grid_rejected(self):
        g = Grid(5 * np.pi, 1024)
        with pytest.raises(PeriodizationError):
            build_direct(Sine(frequency=1.0), Sine(frequency=2 * np.pi), g)

    def test_route_agreement_smeared(self):
        grid = Grid(20.0, 1024)
        f, g = rank_one_pair(1.0)
        direct = build_direct(f, g, grid)
        nystrom = build_nystrom_x(f, g, grid)
        agr = route_agreement(direct, nystrom)
        assert agr.smeared_max_diff < 1e-4 * max(agr.smeared_scale, 1.0)
        assert agr.smeared_max_diff < 1e-6   # measured: ~3e-9

    @pytest.mark.parametrize("build_b, pair_b", [
        (build_nystrom_x, _composed_pair()),
        (build_direct, rank_one_pair(1.0)),
    ], ids=["composed-x", "kato-direct"])
    def test_route_agreement_smear_matches_dense(self, kato_pair, build_b,
                                                 pair_b):
        # the smear applies K through its factors; against win K win^T
        # on the matrices, real against complex
        grid = Grid(24.0, 512)
        op_a = build_nystrom_x(*kato_pair, grid)
        op_b = build_b(*pair_b, grid)
        assert np.iscomplexobj(op_b.matrix)
        agr = route_agreement(op_a, op_b)
        win = _smear_windows(grid)
        ka, kb = (win @ op.matrix @ win.T * grid.dx for op in (op_a, op_b))
        scale = np.max(np.abs(kb))
        assert agr.smeared_scale == pytest.approx(scale, rel=1e-13)
        assert abs(agr.smeared_max_diff - np.max(np.abs(ka - kb))) <= (
            1e-13 * scale)

    def test_route_agreement_matches_the_applied_smear(self, kato_pair):
        # the smear as Rayleigh quotients of the windows, against K
        # applied to the windows and a GEMM: the same to 1e-13 relative
        grid = Grid(24.0, 1024)
        ops = build_nystrom_x(*kato_pair, grid), build_direct(*kato_pair, grid)
        agr = route_agreement(*ops)
        win = _smear_windows(grid)
        ka, kb = (win @ (op @ win.T) * grid.dx for op in ops)
        scale = np.max(np.abs(kb))
        assert agr.smeared_scale == pytest.approx(scale, rel=1e-13)
        assert abs(agr.smeared_max_diff - np.max(np.abs(ka - kb))) <= (
            1e-13 * scale)

    def test_route_agreement_rejects_momentum_route(self, kato_pair):
        # momentum-lattice entries smeared with position windows mean nothing
        grid = Grid(24.0, 256)
        op_p = build_nystrom_p(*kato_pair, grid)
        op_x = build_nystrom_x(*kato_pair, grid)
        with pytest.raises(RouteMismatchError):
            route_agreement(op_p, op_x)
        with pytest.raises(RouteMismatchError):
            route_agreement(op_x, op_p)

    def test_route_agreement_rejects_another_grid(self, kato_pair):
        op = build_nystrom_x(*kato_pair, Grid(24.0, 256))
        for other in (Grid(24.0, 512), Grid(20.0, 256)):
            with pytest.raises(ValueError, match="share a grid"):
                route_agreement(op, build_nystrom_x(*kato_pair, other))

    def test_route_agreement_peak_memory(self, kato_pair):
        # the smearing applies each operator from its factors: no N x N
        # or N/2 x N/2 temporary (the windows are O(N)), and neither
        # matrix is assembled
        n = 1024
        grid = Grid(24.0, n)
        direct = build_direct(*kato_pair, grid)
        nystrom = build_nystrom_x(*kato_pair, grid)
        tracemalloc.start()
        try:
            route_agreement(direct, nystrom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * n * n * 16
        assert "matrix" not in vars(direct) and "matrix" not in vars(nystrom)

    def test_build_peak_memory(self, kato_pair):
        # the row blocks are written in place and the scans read the
        # lattice: the complex matrix and O(N) temporaries
        n = 1024
        grid = Grid(24.0, n)
        tracemalloc.start()
        try:
            build_direct(*kato_pair, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * n * n

    def test_physical_action_matches(self):
        grid = Grid(20.0, 1024)
        f, g = rank_one_pair(1.0)
        direct = build_direct(f, g, grid)
        nystrom = build_nystrom_x(f, g, grid)
        psi = np.exp(-grid.x ** 2 / 2)
        diff = (direct.matrix - nystrom.matrix) @ psi
        assert np.max(np.abs(diff)) < 1e-7


class TestStripPositivity:
    def test_kato_identity_residual(self, grid_std, kato_pair):
        f, g = kato_pair
        for y in (0.2, 0.5, 1.0):
            res = strip_positivity_check(f, g, y, grid=grid_std)
            assert res.max_residual < 1e-8
            assert res.min_imag >= 0.0

    def test_fhat_2iy_value(self, grid_std, kato_pair):
        # f = tanh(pi t/2): fhat(2iy) = (1/sqrt(2pi)) * 4y/sin(2y)
        f, g = kato_pair
        res = strip_positivity_check(f, g, 0.3, grid=grid_std)
        assert res.fhat_at_2iy.real == pytest.approx(
            4 * 0.3 / np.sin(0.6) / SQRT_2PI, rel=1e-10)

    def test_pole_proximity_flag(self, grid_std):
        # g = tanh(2t) has strip pi/4; y = 0.7 is close to the boundary
        f = TanhMeasure([0.0], [1.0], alpha=np.pi / 8)  # partner, wide moments
        g = TanhAffine(rate=2.0)
        res = strip_positivity_check(f, g, 0.7, grid=grid_std)
        assert res.min_imag >= 0.0          # still inside the true strip
        assert res.pole_proximity           # flagged near pi/4
        res_low = strip_positivity_check(f, g, 0.3, grid=grid_std)
        assert not res_low.pole_proximity

    def test_outside_strip_rejected(self, grid_std):
        g = TanhAffine(rate=2.0)
        f = TanhMeasure([0.0], [1.0], alpha=np.pi / 8)
        with pytest.raises(StripViolationError):
            strip_positivity_check(f, g, 0.9, grid=grid_std)  # > pi/4
