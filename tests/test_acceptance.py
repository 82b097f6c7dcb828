"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from blochbohr import (ExtremalSpec, ParameterDomainError,
                       TruncatedSeries, ZeroDenominatorError,
                       avkhadiev_coefficients, avkhadiev_eval,
                       avkhadiev_majorant_closed_form, blaschke_degree,
                       bombieri_m_infty, builtin_weight, cauchy_chain_check,
                       circle_norms, coefficient_sum, criterion_check,
                       eval_series, extremal_coefficients, extremal_eval,
                       majorant, mobius_majorant_sup, theorem1_optimize,
                       theorem1_root, theorem4_sup,
                       best_test_ratio, theorem4_upper_bound, verify_sharpness,
                       weighted_radial_sup)
from blochbohr.bounds import theorem4_grid_max
from blochbohr.search import R_MAX, grid
from conftest import random_polynomial, t4_table, trig_quadrature_l2

SQRT2 = float(np.sqrt(2.0))


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_01_theorem1_optimum():
    start = time.perf_counter()
    s_star, r_star = theorem1_optimize()
    elapsed = time.perf_counter() - start
    assert abs(r_star - 0.563777) <= 1e-5
    assert abs(s_star - 0.333771) <= 1e-3
    assert elapsed < 5.0
    report(1, f"optimum r*={r_star:.7f} (±1e-5 of 0.563777), "
              f"s*={s_star:.6f} (±1e-3 of 0.333771), {elapsed:.2f}s < 5s")


def test_criterion_02_prior_constant():
    start = time.perf_counter()
    root = theorem1_root(0.5)
    elapsed = time.perf_counter() - start
    assert abs(root - 0.55356) <= 1e-4
    assert elapsed < 1.0
    report(2, f"root(s=1/2)={root:.6f} (±1e-4 of 0.55356), {elapsed:.3f}s < 1s")


def test_criterion_03_theorem4_certificate_and_search():
    start = time.perf_counter()
    value, _ = theorem4_sup(0.35, 0.769)
    assert value > 1.0 + 1e-9
    scan = theorem4_upper_bound()
    upper = scan.upper_bound
    assert 1.0 / SQRT2 <= upper <= 0.7691
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"sup_r at (a=0.35, R=0.769) = {value:.7f} > 1+1e-9; "
              f"search upper bound {upper:.6f} in [1/sqrt(2), 0.7691], "
              f"{elapsed:.2f}s < 30s")


def test_criterion_04_theorem2_consistency():
    start = time.perf_counter()
    top = theorem4_grid_max(1.0 / SQRT2)
    elapsed = time.perf_counter() - start
    a = np.linspace(1e-6, 1.0 / np.sqrt(3.0) - 1e-9, 200)[:, None]
    r = np.linspace(0.0, 1.0, 2048)[None, :]
    assert top == t4_table(a, 1.0 / SQRT2, r).max()
    assert top <= 1.0 + 1e-9
    assert elapsed < 30.0
    report(4, f"max over 200x2048 grid at R=1/sqrt(2) is {top:.9f} "
              f"<= 1+1e-9, {elapsed:.2f}s < 30s")


def test_criterion_05_bombieri_values():
    at_sqrt2 = bombieri_m_infty(1.0 / SQRT2)
    assert abs(at_sqrt2 - SQRT2) <= 4 * np.finfo(float).eps
    assert abs(bombieri_m_infty(1.0 / 3.0) - 1.0) <= 1e-12
    radii = np.linspace(1.0 / 3.0, 1.0 / SQRT2, 20)
    worst = max(abs(mobius_majorant_sup(float(r)) - bombieri_m_infty(float(r)))
                for r in radii)
    assert worst <= 1e-6
    report(5, f"m(1/sqrt(2))=sqrt(2) to machine precision, m(1/3)=1 (1e-12), "
              f"Mobius realization matches closed form to {worst:.2e} <= 1e-6 "
              f"at 20 grid points")


def test_criterion_06_weight_criterion():
    assert criterion_check(builtin_weight("constant"), 1.0).passed
    for kind in ("example2", "example3"):
        for r0 in (0.75, 0.8, 0.9):
            for alpha in (1, 2):
                w = builtin_weight(kind, r0=r0, alpha=alpha)
                assert criterion_check(w, r0).passed, (kind, r0, alpha)
    std = builtin_weight("standard")
    witnessed = 0
    errored_at_one = 0
    for r0 in np.linspace(1.0 / SQRT2, 1.0, 50):
        try:
            rep = criterion_check(std, float(r0))
        except ZeroDenominatorError:
            # the weight vanishes at r0 = 1: the anchor itself is infeasible
            errored_at_one += 1
            continue
        assert not rep.passed
        assert rep.violation_witness is not None
        witnessed += 1
    assert witnessed + errored_at_one == 50
    assert errored_at_one <= 1
    report(6, f"constant passes at r0=1; example weights pass on "
              f"{{0.75,0.8,0.9}}x{{1,2}}; standard weight fails all 50 anchors "
              f"({witnessed} with witness, {errored_at_one} zero-denominator "
              f"at r0=1)")


def test_criterion_07_sharpness_end_to_end():
    # example2 at alpha = 1 passes the criterion at r0 = 0.8 but not the
    # identity: the sup side peaks past the anchor.  Above the attainment
    # threshold alpha = (1 + sqrt(2))^2 (1 - r0)/r0 both sides peak at r0.
    rep = verify_sharpness(builtin_weight("example2", r0=0.8, alpha=1), 0.8)
    assert rep.lhs_witness_r == 0.8
    assert rep.rhs_sup == 1.0736870584245609
    assert rep.rhs_witness_r == 0.8587638524630434
    assert rep.relative_gap > 1e-9
    held = verify_sharpness(builtin_weight("example2", r0=0.8, alpha=2), 0.8)
    assert held.relative_gap <= 1e-9
    assert held.lhs_witness_r == held.rhs_witness_r == 0.8
    report(7, f"example-2 (r0=0.8, alpha=1): sup side {rep.rhs_sup:.7f} at "
              f"r = {rep.rhs_witness_r:.6f}, relative gap {rep.relative_gap:.2e} "
              f"> 1e-9; alpha=2: gap {held.relative_gap:.2e} <= 1e-9, both "
              f"witnesses exactly 0.8")


def test_criterion_08_extremal_oracles():
    spec = ExtremalSpec(r0=0.8, truncation=256)
    s = extremal_coefficients(spec)
    n = np.arange(s.coeffs.size, dtype=float)
    law = np.abs(s.coeffs) * 0.8 ** n - (1.0 / SQRT2) ** (n + 1.0)
    assert np.max(np.abs(law)) <= 1e-12
    degree = blaschke_degree(s, 0.8)
    assert abs(degree - 1.0) <= 1e-8
    rng = np.random.default_rng(42)
    z = 0.99 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    mismatch = np.max(np.abs(eval_series(s, z).value - extremal_eval(spec, z)))
    assert mismatch <= 1e-10
    report(8, f"coefficient law |a_n| r0^n = 2^(-(n+1)/2) to "
              f"{np.max(np.abs(law)):.2e} <= 1e-12 for n <= 256; degree "
              f"{degree:.10f} (±1e-8 of 1); series vs closed form mismatch "
              f"{mismatch:.2e} <= 1e-10 at 100 random points")


def test_criterion_09_avkhadiev_checks():
    for a in (0.1, 0.35, 0.57):
        s = avkhadiev_coefficients(a)
        assert s.coeffs[0].real < 0.0
        assert np.all(s.coeffs[1:].real > 0.0)
    with pytest.raises(ParameterDomainError):
        avkhadiev_coefficients(0.6)
    std = builtin_weight("standard")
    ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False))
    rough = max(std(r) * np.abs(avkhadiev_eval(0.35, r * ring)).max()
                for r in grid(0.0, R_MAX, 2048))
    assert abs(rough - 1.0) <= 1e-4
    refined = weighted_radial_sup(avkhadiev_coefficients(0.35), std)
    assert abs(refined.value - 1.0) <= 1e-8
    s = avkhadiev_coefficients(0.35)
    worst = max(abs(coefficient_sum(majorant(s), x)
                    - avkhadiev_majorant_closed_form(0.35, x))
                for x in (0.1, 0.5, 0.9))
    assert worst <= 1e-10
    report(9, f"coefficient signs hold for a in {{0.1, 0.35, 0.57}} and fail "
              f"for a=0.6; radial sup 1 within 1e-4 grid / "
              f"{abs(refined.value - 1.0):.2e} refined; majorant closed form "
              f"matches term sums to {worst:.2e} <= 1e-10")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(2024)
    std = builtin_weight("standard")
    const = builtin_weight("constant")
    weights = [std, const,
               builtin_weight("example2", r0=0.8, alpha=2),
               builtin_weight("example3", r0=0.75, alpha=1)]
    worst_chain = -np.inf
    for k in range(1000):
        s = random_polynomial(rng)
        w = weights[k % len(weights)]
        scale = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.05, 0.95))
        v1, v2, v3 = cauchy_chain_check(s, w, scale, r)
        worst_chain = max(worst_chain, v1 - v2, v2 - v3)
    assert worst_chain <= 1e-9

    gaps = {scale: scale / np.sqrt(1.0 - scale * scale) - best_test_ratio(scale)[0]
            for scale in (0.3, 0.5, 1.0 / SQRT2, 0.9)}
    assert all(gap > 0.0 for gap in gaps.values())

    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    worst_parseval = 0.0
    for _ in range(500):
        s = random_polynomial(rng, max_degree=24)
        r = float(rng.uniform(0.05, 0.89))
        dominating = eval_series(majorant(s), r).value.real
        values = np.abs(eval_series(s, r * np.exp(1j * theta)).value)
        assert np.all(values <= dominating + 1e-10)
        cn = circle_norms(s, r)
        worst_parseval = max(worst_parseval,
                             abs(cn.l2_norm - trig_quadrature_l2(s.coeffs, r)))
    assert worst_parseval <= 1e-8

    report(10, f"chain weakly increasing on 1000 samples (worst slack "
               f"{worst_chain:.2e}); strictness gaps positive at four scales "
               f"(min {min(gaps.values()):.4f}); majorant domination and "
               f"Parseval (worst {worst_parseval:.2e} <= 1e-8) on 500 series")
