import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from poscomm import (
    AccuracyError,
    ArctanAffine,
    Constant,
    ContractViolationError,
    DivergenceError,
    FunctionSum,
    Grid,
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
    operator_two_norm,
    rank_one_pair,
    rank_three_example,
    route_agreement,
    shifted_trace,
    spectrum,
    strip_positivity_check,
    trace_identity_check,
)
from poscomm.cli import _operator, load_config
from poscomm.grids import SQRT_2PI
from poscomm.operators import _TILE, _finalize

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
        # every route and the finite-rank model share one finalize step:
        # the result is exactly Hermitian and the defect is measured
        f, g = rank_one_pair(1.0, t1=3.0, t2=-2.0)
        ops = [kato_op] + [build(f, g, grid_small) for build in
                           (build_nystrom_x, build_nystrom_p, build_direct)]
        for op in ops:
            m = op.matrix
            assert np.array_equal(m, m.conj().T), op.route
            assert np.isfinite(op.hermiticity_defect), op.route
            assert op.hermiticity_defect < 1e-12 * np.max(np.abs(m)), op.route
        m = rank_three_example(1.0, grid_small).model.assemble()
        assert np.array_equal(m, m.conj().T)

    def test_shifted_pair_is_complex_hermitian(self, grid_mid):
        f, g = rank_one_pair(1.0, t1=3.0, t2=-2.0)
        op = build_nystrom_x(f, g, grid_mid)
        assert np.iscomplexobj(op.matrix)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-14

    def test_rank3_kernel_matches_model(self, grid_mid):
        ex = rank_three_example(1.0, grid_mid)
        op = build_nystrom_x(ex.f, ex.g, grid_mid)
        assert np.max(np.abs(ex.model.assemble() - op.matrix)) < 1e-6


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

    @pytest.mark.parametrize("where", [
        lambda n: (0, 1),
        lambda n: (0, n - 1),
        lambda n: (n - 3, n - 40),
    ], ids=["0-1", "0-last", "last-partial-tile"])
    def test_non_hermitian_rejected(self, kato_op, where):
        import copy
        n = 620                      # not a multiple of the tile edge
        assert n % _TILE and n - 40 > n - n % _TILE
        bad = copy.copy(kato_op)
        m = kato_op.matrix[:n, :n].copy()
        m[where(n)] += 1.0
        bad.matrix = m
        with pytest.raises(ContractViolationError):
            spectrum(bad)

    def test_nonfinite_rejected(self, kato_op):
        import copy
        bad = copy.copy(kato_op)
        m = kato_op.matrix.copy()
        m[3, 3] = np.nan
        bad.matrix = m
        with pytest.raises(AccuracyError):
            spectrum(bad)
        with pytest.raises(AccuracyError):
            operator_two_norm(bad)


    def test_nonfinite_in_lower_tile_rejected(self, kato_op):
        # the guard's per-tile scale must see a NaN that only the lower
        # tile of a pair holds (max(0.0, nan) is 0.0 in Python)
        import copy
        bad = copy.copy(kato_op)
        m = kato_op.matrix[:600, :600].copy()
        m[590, 3] = np.nan
        bad.matrix = m
        with pytest.raises(AccuracyError):
            spectrum(bad)


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

    def test_full_spectrum_is_dense_eigvalsh(self, howland_op):
        # the dense fallback returns all N eigenvalues of eigvalsh, exactly
        rep = spectrum(howland_op)
        assert rep.solver == "dense" and rep.residual_bound == 0.0
        assert rep.eigenvalues.size == howland_op.n
        assert np.array_equal(rep.eigenvalues,
                              np.linalg.eigvalsh(howland_op.matrix)[::-1])

    def test_howland_pair_falls_back_to_dense(self, howland_op):
        rep = spectrum(howland_op)
        assert rep.solver == "dense"
        assert rep.eigenvalues.size == 1024
        assert rep.numerical_rank > 100


class TestTiledFinalize:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [100, _TILE, 256, 600])
    def test_matches_dense_reference(self, n, dtype):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        if dtype is complex:
            m = m + 1j * rng.standard_normal((n, n))
        ref = 0.5 * (m + m.conj().T)
        ref_defect = float(np.max(np.abs(m - m.conj().T)))
        out, defect = _finalize(m.copy())
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        assert defect == ref_defect

    def test_nan_in_far_tile_raises(self):
        m = np.random.default_rng(0).standard_normal((600, 600))
        m[3, 590] = np.nan
        with pytest.raises(AccuracyError):
            _finalize(m)


def _dense_nystrom_reference(fn, coords, profile, step):
    """Reference Nystrom build: dense complex difference quotient times an
    N x N gather of the Toeplitz profile, then one 0.5*(m + m^H) pass."""
    n = coords.size
    values = np.asarray(fn(coords), dtype=float)
    den = coords[:, None] - coords[None, :]
    np.fill_diagonal(den, 1.0)
    dq = (values[:, None] - values[None, :]) / den
    np.fill_diagonal(dq, np.asarray(fn.derivative(coords), dtype=float))
    vals = profile.real_values(step * np.arange(-(n - 1), n))
    idx = np.arange(n)
    m = dq * vals[(idx[None, :] - idx[:, None]) + (n - 1)] / SQRT_2PI * step
    defect = float(np.max(np.abs(m - m.conj().T)))
    m = 0.5 * (m + m.conj().T)
    if np.max(np.abs(m.imag)) < 1e-14 * max(np.max(np.abs(m.real)), 1e-300):
        m = np.ascontiguousarray(m.real)
    return m, defect


def _assert_matches_reference(op, fn, coords, step):
    ref, defect = _dense_nystrom_reference(fn, coords, op.profile, step)
    assert op.matrix.dtype == ref.dtype
    assert np.array_equal(op.matrix, ref)
    assert op.hermiticity_defect == defect


def _composed_pair():
    cat = catalog()
    return compose_pair(cat["log-shift"], TanhAffine(rate=np.pi / 2),
                        cat["identity"], TanhAffine(rate=1.0))


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
        # the raw nodal difference is dominated by the Nyquist-wrap
        # artifact plus the identically-zero diagonal: document it
        assert agr.nodal_max_diff > 1e-3

    def test_route_agreement_rejects_momentum_route(self, kato_pair):
        # momentum-lattice entries smeared with position windows mean nothing
        grid = Grid(24.0, 256)
        op_p = build_nystrom_p(*kato_pair, grid)
        op_x = build_nystrom_x(*kato_pair, grid)
        with pytest.raises(RouteMismatchError):
            route_agreement(op_p, op_x)
        with pytest.raises(RouteMismatchError):
            route_agreement(op_x, op_p)

    def test_route_agreement_peak_memory(self, kato_pair):
        # the smearing reads each matrix as it is and the interior block
        # is compared one row block of slice views at a time: no N x N or
        # N/2 x N/2 temporary (the windows are O(N))
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

    def test_build_peak_memory(self, kato_pair):
        # the g-difference multiply and the realify test run one row
        # block at a time: the complex circulant plus row-block temporaries
        n = 1024
        grid = Grid(24.0, n)
        tracemalloc.start()
        try:
            build_direct(*kato_pair, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22 * n * n

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
