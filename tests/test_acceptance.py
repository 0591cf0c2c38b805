"""Acceptance suite: one test per criterion, pinned tolerances, one
printed pass/fail line each (run with -s to see them)."""

import os

import numpy as np
import pytest
from scipy.integrate import quad

from poscomm import (
    ArctanAffine,
    AveragingProfile,
    Grid,
    Sine,
    TanhAffine,
    TanhMeasure,
    build_direct,
    build_nystrom_p,
    build_nystrom_x,
    catalog,
    composition_positivity_experiment,
    convergence_study,
    cosh_mollify,
    fit_tanh_measure,
    herglotz_check,
    loewner_certificate,
    rank_one_pair,
    rank_three_example,
    route_agreement,
    shifted_trace,
    spectrum,
    strip_positivity_check,
    strip_product_check,
    trace_identity_check,
)
from poscomm.cli import load_config, run
from poscomm.grids import SQRT_2PI
from poscomm.reporting import stable_bytes

from conftest import claimed_monotone_entries, operator_two_norm

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs", "paper")


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_trace_identity(kato_op):
    tc = trace_identity_check(kato_op)
    ok = tc.rel_error < 1e-6 and abs(tc.rhs - 2 / np.pi) < 1e-12
    _report(1, ok, f"trace {tc.lhs:.12f} vs [f][g]/2pi {tc.rhs:.12f}, "
                   f"rel err {tc.rel_error:.2e} < 1e-6")


def test_criterion_02_rank_one(kato_spectrum, grid_std):
    lam1 = kato_spectrum.max_eig
    ratio = abs(kato_spectrum.eigenvalues[1]) / lam1
    f, g = rank_one_pair(1.0, t1=3.0, t2=-2.0)
    shifted = spectrum(build_nystrom_x(f, g, grid_std))
    ok = (kato_spectrum.numerical_rank == 1
          and ratio < 1e-6
          and abs(lam1 - 2 / np.pi) < 1e-4
          and abs(shifted.max_eig - lam1) < 1e-8)
    _report(2, ok, f"rank {kato_spectrum.numerical_rank}, "
                   f"lam2/lam1 {ratio:.1e}, lam1 {lam1:.9f} "
                   f"(2/pi {2/np.pi:.9f}), shift drift "
                   f"{abs(shifted.max_eig - lam1):.1e}")


def _eq1_pair(alpha, f_atoms, g_atoms, d1=0.0, d2=0.0):
    return (TanhMeasure([a for a, _ in f_atoms], [w for _, w in f_atoms],
                        offset=d1, alpha=alpha),
            TanhMeasure([a for a, _ in g_atoms], [w for _, w in g_atoms],
                        offset=d2, alpha=np.pi / (2 * alpha)))


PSD_PAIRS = {
    "1-atom alpha=1": _eq1_pair(1.0, [(0.0, 1.0)], [(0.0, 1.0)]),
    "2-atom alpha=1": _eq1_pair(1.0, [(-1.0, 0.5), (1.0, 0.5)],
                                [(0.3, 0.7)], d1=0.1, d2=-0.2),
    "5-atom alpha=0.7": _eq1_pair(
        0.7,
        [(-2.0, 0.2), (-1.0, 0.3), (0.0, 0.2), (0.8, 0.2), (1.7, 0.1)],
        [(-1.5, 0.1), (-0.5, 0.3), (0.2, 0.2), (1.0, 0.25), (2.0, 0.15)]),
    "2-atom alpha=1.4": _eq1_pair(1.4, [(-0.8, 0.3), (1.2, 0.4)],
                                  [(0.0, 0.5), (0.5, 0.2)]),
    "5-atom alpha=0.5": _eq1_pair(
        0.5,
        [(-1.8, 0.15), (-0.9, 0.25), (0.0, 0.2), (0.9, 0.25), (1.8, 0.15)],
        [(-2.0, 0.2), (-1.0, 0.2), (0.0, 0.2), (1.0, 0.2), (2.0, 0.2)]),
    "howland arctan-tanh": (ArctanAffine(width=2.0), TanhAffine(rate=1.0)),
}


def test_criterion_03_psd_certificates(grid_std):
    worst = []
    for name, (f, g) in PSD_PAIRS.items():
        rep = spectrum(build_nystrom_x(f, g, grid_std))
        margin = rep.min_eig / max(abs(rep.max_eig), 1e-300)
        worst.append((name, margin, rep.positive))
    ok = all(p for _, _, p in worst)
    detail = "; ".join(f"{n}: min/max {m:.1e}" for n, m, _ in worst)
    _report(3, ok, detail)


def test_criterion_04_rank3_indefiniteness(grid_std):
    results = []
    for beta in (0.5, 1.0, 2.0):
        ex = rank_three_example(beta, grid_std)
        op = build_nystrom_x(ex.f, ex.g, grid_std)
        rep = spectrum(op)
        lam_minus_target = -(beta / np.pi) * (np.pi - 2) / 2
        norm2 = ex.model.factor_norms_sq()[2]
        u = np.sqrt(grid_std.dx) * ex.model.factors[2]
        quad_form = float(np.real(u @ op.matrix @ u))
        quad_target = -(beta / np.pi) * norm2 ** 2
        ok_b = (rep.numerical_rank == 3
                and rep.sign_pattern() == (2, 1)
                and abs(rep.min_eig - lam_minus_target)
                / abs(lam_minus_target) < 1e-6
                and abs(quad_form - quad_target) / abs(quad_target) < 1e-6
                and abs(rep.trace - 2 * (1 + beta) / np.pi)
                / (2 * (1 + beta) / np.pi) < 1e-6)
        results.append((beta, ok_b, rep.min_eig))
    ok = all(r[1] for r in results)
    _report(4, ok, "; ".join(f"beta={b}: lam- = {l:.6f}"
                             for b, _, l in results))


def test_criterion_05_zero_commutator():
    grid = Grid(16.0, 2048)    # 2L and N/(2L) integer: period-matched
    op = build_direct(Sine(frequency=1.0), Sine(frequency=2 * np.pi), grid)
    norm = operator_two_norm(op)
    ok = norm < 1e-8
    _report(5, ok, f"||K||_2 = {norm:.2e} on the period-matched grid")


def test_criterion_06_route_consistency():
    grid = Grid(20.0, 1024)
    f, g = rank_one_pair(1.0)
    direct = build_direct(f, g, grid)
    nystrom = build_nystrom_x(f, g, grid)
    agr = route_agreement(direct, nystrom)
    ok = (agr.smeared_max_diff < 1e-4
          and direct.trace() == 0.0)
    _report(6, ok,
            f"interior matrix elements (Gaussian-window basis) agree to "
            f"{agr.smeared_max_diff:.2e} < 1e-4; direct trace "
            f"{direct.trace()!r} == 0.0 exactly")


def test_criterion_07_shifted_traces(grid_std):
    f = TanhAffine(rate=1.0)             # f' = sech^2
    g = TanhAffine(rate=np.pi / 2)
    op = build_nystrom_p(f, g, grid_std)
    errs = []
    for sep in (0.0, 0.5, 1.0, 2.0, -1.3):
        val = shifted_trace(op, sep, 0.0)
        oracle = quad(lambda t, s=sep: np.cos(s * t) / np.cosh(t) ** 2,
                      0, 60, limit=300)[0] * 2 / SQRT_2PI
        errs.append(abs(val - oracle) / abs(oracle))
    for y0 in (0.2, 0.5, 0.8):
        val = shifted_trace(op, 0.0, 2j * y0)
        oracle = quad(lambda t, y=y0: np.exp(2 * y * t) / np.cosh(t) ** 2,
                      -80, 80, limit=400)[0] / SQRT_2PI
        errs.append(abs(val - oracle) / abs(oracle))
    ok = max(errs) < 1e-5
    _report(7, ok, f"8 shift arguments, worst rel err {max(errs):.2e} < 1e-5")


def test_criterion_08_strip_identity(grid_std, kato_pair):
    f, g = kato_pair
    rows = []
    for y in (0.2, 0.5, 1.0):
        res = strip_positivity_check(f, g, y, grid=grid_std)
        rows.append((y, res.max_residual, res.min_imag))
    ok = all(r < 1e-8 and m >= 0.0 for _, r, m in rows)
    _report(8, ok, "; ".join(f"y={y}: resid {r:.1e}, min Im {m:.2e}"
                             for y, r, m in rows))


def test_criterion_09_loewner_suite():
    failures = []
    worst = 0.0
    for entry in claimed_monotone_entries():
        cert = loewner_certificate(entry, [2, 3, 5])
        margins = [*cert.margins.values(), cert.all_orders_margin]
        worst = min(worst, *margins)
        if min(margins) < -1e-10:
            failures.append((entry.name, cert.margins, cert.all_orders_margin))
    sq = loewner_certificate(catalog()["square"], [3])
    ok = not failures and sq.margins[3] < -1e-10 and sq.witness_det < -0.1
    _report(9, ok,
            f"{len(claimed_monotone_entries())} claimed-monotone entries: "
            f"Loewner margins on 2, 3, 5 and 64 Chebyshev nodes >= "
            f"{worst:.1e}; x^2 falsified by the 2-node witness "
            f"{sq.witness} (normalized det {sq.witness_det:.2f})")


def test_criterion_10_composition_positivity(grid_mid):
    cat = catalog()
    bases = [rank_one_pair(1.0), PSD_PAIRS["2-atom alpha=1"]]
    combos = [("sqrt-shift", "log-shift"), ("moebius", "affine"),
              ("log-shift", "neg-inverse-shift"),
              ("neg-inverse-shift", "sqrt-shift"),
              ("affine", "moebius"), ("identity", "log-shift")]
    bad = []
    for f, g in bases:
        for fn, gn in combos:
            rep = composition_positivity_experiment(cat[fn], f, cat[gn], g,
                                                    grid_mid)
            if not rep.positive:
                bad.append((fn, gn, rep.min_eig))
    ok = not bad
    _report(10, ok, f"{len(combos)} (F,G) pairs over {len(bases)} PSD bases "
                    f"all PSD" if ok else f"violations: {bad}")


def test_criterion_11_averaging_kernel():
    prof = AveragingProfile()
    integral = prof.weight_integral()
    study = convergence_study(TanhAffine(rate=1.0), np.linspace(-2, 2, 17),
                              [0.2, 0.1, 0.05, 0.025])
    ok = abs(integral - 1.0) < 1e-10 and 1.8 <= study.slope <= 2.2
    _report(11, ok, f"int h = 1 {integral - 1.0:+.2e}; "
                    f"convergence slope {study.slope:.3f} in [1.8, 2.2]")


def test_criterion_12_measure_fitting():
    two_atom = TanhMeasure([-1.0, 1.0], [0.5, 0.5], alpha=np.pi / 2)
    fit = fit_tanh_measure(two_atom, np.pi / 2,
                           np.arange(-4.0, 4.0 + 0.05, 0.1))
    locs = sorted(a.location for a in fit.clusters)
    wts = [a.weight for a in fit.clusters]
    reject = fit_tanh_measure(TanhAffine(rate=2.0), np.pi / 2,
                              np.arange(-4.0, 4.0 + 0.05, 0.1))
    ok = (fit.member and fit.residual < 1e-6 and len(fit.clusters) == 2
          and abs(locs[0] + 1.0) < 0.05 and abs(locs[1] - 1.0) < 0.05
          and all(abs(w - 0.5) < 1e-2 for w in wts)
          and not reject.member)
    _report(12, ok, f"two-atom: residual {fit.residual:.1e}, atoms at "
                    f"{locs[0]:+.3f}/{locs[1]:+.3f}; steep tanh(2t) "
                    f"rejected with residual {reject.residual:.2f}")


def test_criterion_13_mollifier_membership():
    rows = []
    for eps in (0.1, 0.5):
        m = cosh_mollify(TanhAffine(rate=1.0), eps)
        rep = herglotz_check(m, np.pi * eps / 2)
        rows.append((eps, rep.passed, rep.min_imag))
    ok = all(p for _, p, _ in rows)
    _report(13, ok, "; ".join(f"eps={e}: min Im {m:.1e}"
                              for e, _, m in rows))


def test_criterion_14_strip_product(grid_mid):
    ex = rank_three_example(1.0, grid_mid)
    sp = strip_product_check(ex.f, ex.g, grid_mid)
    rel = abs(sp.product - np.pi / 4) / (np.pi / 4)
    ok = rel < 0.05 and sp.within_bound
    _report(14, ok, f"strips ({sp.strip_f:.4f}, {sp.strip_g:.4f}), product "
                    f"{sp.product:.6f} vs pi/4 {np.pi/4:.6f} "
                    f"({rel * 100:.2f}%), r*r' <= pi/2 holds")


def test_criterion_15_determinism(corpus_reports):
    # one fresh run per config against the session corpus run
    assert len(corpus_reports) >= 20
    unstable = [name for name, (_, blob) in corpus_reports.items()
                if stable_bytes(run(load_config(
                    os.path.join(CONFIG_DIR, name)))) != blob]
    ok = not unstable
    _report(15, ok, f"{len(corpus_reports)} shipped configs byte-stable "
                    "modulo timing" if ok else f"unstable: {unstable}")
