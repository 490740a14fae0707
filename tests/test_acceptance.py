"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import time

import numpy as np
import pytest

from specgap.builders import build_named
from specgap.certify import gap_profile
from specgap.cli import main as cli_main
from specgap.errors import DegenerateConfigurationError
from specgap.linalg import classify_exterior, exterior_power, spectrum
from specgap.obstruct import (certify_not_limit, limit_formula_check,
                              sample_limit_set)
from specgap.reps import RepSpec, rename_generators, schottky_sl2r
from specgap.words import Alphabet, Presentation, Word, commutator, word

from oracles import spectrum_tensor, spectrum_wedge

PAIR = Alphabet(("a1", "b1"))


def report(criterion, passed, detail=""):
    line = f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    assert passed, line


def top_cluster(matrix, tol=1e-6):
    eigs = spectrum(matrix).eigenvalues
    l1 = abs(eigs[0])
    return [z for z in eigs if abs(z) >= (1 - tol) * l1]


def is_nonreal_conjugate_pair(matrix, tol=1e-6):
    cluster = top_cluster(matrix, tol)
    if len(cluster) != 2:
        return False
    z1, z2 = cluster
    return (abs(z1.imag) > tol * abs(z1)
            and abs(z1 - z2.conjugate()) <= tol * abs(z1))


def test_criterion_1_d12_golden():
    t0 = time.monotonic()
    lam, mu, x, s, nu = -9.0, 2.0, 2.0, -9.0, 1.2
    # gate arithmetic at the documented example values
    assert abs(lam) > x ** 3 > abs(lam) / mu ** 2 > 1 > mu ** 2 / abs(lam)
    result = build_named("thm1ii_d12",
                         {"lam": lam, "mu": mu, "x": x, "s": s, "nu": nu},
                         seed=7)
    rep = result.rep
    g = rep.evaluate(result.witness("main"))
    expected = [abs(lam) * mu ** 2 / x, x ** 2 * mu ** 2, abs(lam) / x,
                abs(lam) / x, x ** 2, x ** 2, abs(lam) / (x * mu ** 2)]
    np.testing.assert_allclose(spectrum(g).moduli[:7], expected, rtol=1e-9)
    for i in (1, 2, 4, 5, 6):
        cls = classify_exterior(spectrum(g).eigenvalues, i, 1e-6)
        assert not cls.positively_semiproximal and not cls.indeterminate, i
    h = rep.evaluate(result.witness("second"))
    w3 = classify_exterior(spectrum(h).eigenvalues, 3, 1e-6)
    assert w3.p1_proximal
    assert w3.top_eigenvalue.real == pytest.approx(s ** 3 * nu ** 2, rel=1e-9)
    assert w3.top_eigenvalue.real < 0
    cert = certify_not_limit(rep,
                             [result.witness("main"), result.witness("second")],
                             range(1, 7), Presentation.free(rep.alphabet))
    assert cert.covered_all
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(1, True, f"d12 golden, two-witness coverage 1..6 ({elapsed:.1f}s)")


def test_criterion_2_d5_and_d6_goldens():
    t0 = time.monotonic()
    d5 = build_named("thm1i_d5", {"spread": 4.0}, seed=0)
    assert d5.manifest["search"]["candidates_examined"] <= 200
    lam = abs(d5.manifest["derived"]["lambda1"])
    x = d5.manifest["derived"]["x"]
    m = d5.rep.evaluate(d5.witness("main"))
    np.testing.assert_allclose(
        spectrum(m).moduli[:3],
        [x, x ** -0.25 * lam, x ** -0.25 * lam], rtol=1e-6)
    w2 = classify_exterior(spectrum(m).eigenvalues, 2, 1e-6)
    assert not w2.positively_semiproximal and not w2.indeterminate
    d5_elapsed = time.monotonic() - t0
    assert d5_elapsed < 30

    t1 = time.monotonic()
    d6 = build_named("thm1i_d6", {"spread": 4.0}, seed=0)
    assert d6.manifest["search"]["candidates_examined"] <= 200
    m = d6.rep.evaluate(d6.witness("main"))
    pc = spectrum(m).eigenvalues
    assert pc[0].real < 0 and abs(pc[0].imag) <= 1e-6 * abs(pc[0])
    w2 = classify_exterior(spectrum(m).eigenvalues, 2, 1e-6)
    assert w2.p1_proximal and w2.top_eigenvalue.real < 0
    w3 = classify_exterior(spectrum(m).eigenvalues, 3, 1e-6)
    assert w3.top_multiplicity == 2
    assert w3.semiproximal and not w3.positively_semiproximal
    d6_elapsed = time.monotonic() - t1
    assert d6_elapsed < 30
    report(2, True,
           f"d5 ({d5_elapsed:.1f}s) and d6 ({d6_elapsed:.1f}s) goldens")


def test_criterion_3_dge7_golden():
    t0 = time.monotonic()
    for d in (7, 8, 9, 10):
        result = build_named("thm1i_dge7", {"d": d}, seed=0)
        m = result.rep.evaluate(result.witness("main"))
        for i in range(1, d - 3):
            cls = classify_exterior(spectrum(m).eigenvalues, i, 1e-6)
            assert cls.p1_proximal, (d, i)
            assert cls.top_eigenvalue.real < 0, (d, i)
            assert abs(cls.top_eigenvalue.imag) <= 1e-6 * cls.top_modulus
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(3, True, f"d=7..10 proximal-not-positively sweeps ({elapsed:.1f}s)")


def test_criterion_4_pattern_family():
    t0 = time.monotonic()
    for n in (5, 7, 9):
        result = build_named("thm41_pattern", {"n": n}, seed=0)
        s = result.manifest["params"]["s"]
        p = result.manifest["params"]["p"]
        q = result.manifest["params"]["q"]
        assert abs(q) > p ** 10
        rep = result.rep
        g = rep.evaluate(result.witness("main"))
        expected = [abs(s) ** 3, s ** 2] + [abs(s)] * (n - 1) + [1.0] * (n - 2)
        np.testing.assert_allclose(spectrum(g).moduli[:2 * n - 1], expected,
                                   rtol=1e-9)
        h = rep.evaluate(result.witness("second"))
        for i in range(2, n + 2):
            target = g if i % 2 == 0 else h
            cls = classify_exterior(spectrum(target).eigenvalues, i, 1e-6)
            assert not cls.positively_semiproximal and not cls.indeterminate, \
                (n, i)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(4, True, f"pattern family n=5,7,9 parity coverage ({elapsed:.1f}s)")


def test_criterion_5_surface_builds():
    t0 = time.monotonic()
    sl4 = build_named("prop42_sl4", None, seed=0)
    x = sl4.manifest["params"]["x"]
    mu = sl4.manifest["derived"]["mu"]
    psi_a1 = sl4.rep.evaluate(word(sl4.rep.alphabet, "a1"))
    assert is_nonreal_conjugate_pair(psi_a1)
    assert abs(top_cluster(psi_a1)[0]) == pytest.approx(x, rel=1e-6)
    w2_a2 = exterior_power(sl4.rep.evaluate(word(sl4.rep.alphabet, "a2")), 2)
    assert is_nonreal_conjugate_pair(w2_a2)
    assert abs(top_cluster(w2_a2)[0]) == pytest.approx(mu, rel=1e-6)

    sl6 = build_named("prop42_sl6", None, seed=0)
    lam = sl6.manifest["derived"]["lam"]
    s = sl6.manifest["params"]["s"]
    t = sl6.manifest["params"]["t"]
    mu6 = sl6.manifest["derived"]["mu"]
    g = sl6.rep.evaluate(word(sl6.rep.alphabet, "a1"))
    assert is_nonreal_conjugate_pair(g)
    assert abs(top_cluster(g)[0]) == pytest.approx(lam * s, rel=1e-6)
    h = sl6.rep.evaluate(word(sl6.rep.alphabet, "a2"))
    w2h = exterior_power(h, 2)
    assert is_nonreal_conjugate_pair(w2h)
    assert abs(top_cluster(w2h)[0]) == pytest.approx(mu6 ** 2 / t, rel=1e-6)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    report(5, True, f"surface builds: non-real top pairs ({elapsed:.1f}s)")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(20240817)

    def unimodular(d):
        m = rng.normal(size=(d, d))
        m = m / abs(np.linalg.det(m)) ** (1.0 / d)
        if np.linalg.det(m) < 0:
            m[0] = -m[0]
        return m

    def match_moduli(got, oracle):
        a = np.sort(np.abs(got))[::-1]
        b = np.sort(np.abs(np.asarray(oracle)))[::-1]
        np.testing.assert_allclose(a, b, rtol=1e-6)

    mats = [unimodular(4) if k % 2 == 0 else unimodular(5)
            for k in range(200)]
    for m in mats:
        d = m.shape[0]
        eigs = spectrum(m).eigenvalues
        for i in (2, 3):
            match_moduli(spectrum(exterior_power(m, i)).eigenvalues,
                         spectrum_wedge(eigs, i))
    for a, b in zip(mats[0:40:2], mats[1:40:2]):
        got = spectrum(np.kron(a, b))
        oracle = spectrum_tensor(spectrum(a).eigenvalues,
                                 spectrum(b).eigenvalues)
        match_moduli(got.eigenvalues, oracle)
        s1 = got.singular_values[0]
        assert s1 == pytest.approx(spectrum(a).singular_values[0]
                                   * spectrum(b).singular_values[0], rel=1e-6)
    report(6, True, "200-sample wedge/tensor oracle equivalence at 1e-6")


def test_criterion_7_limit_formulas():
    rng = np.random.default_rng(99)
    j = rename_generators(schottky_sl2r(2, 4.0), PAIR)
    symbols = PAIR.symbols()

    def random_word(length):
        letters = []
        while len(letters) < length:
            idx, sign = symbols[rng.integers(len(symbols))]
            if letters and letters[-1][0] == idx and letters[-1][1] == -sign:
                continue
            letters.append((idx, sign))
        return Word(PAIR, tuple(letters))

    checked = 0
    attempts = 0
    while checked < 20 and attempts < 400:
        attempts += 1
        u, v = random_word(int(rng.integers(1, 3))), random_word(
            int(rng.integers(1, 3)))
        w0 = commutator(u, v)
        if not w0.letters:
            continue
        m0 = j.evaluate(w0)
        if np.trace(m0) >= -2:
            continue
        a = random_word(int(rng.integers(1, 5)))
        try:
            rpt = limit_formula_check(j, w0, a, n_max=30)
        except DegenerateConfigurationError:
            continue
        assert abs(rpt.ratios[-1] - rpt.predicted) <= \
            1e-4 * max(1.0, abs(rpt.predicted))
        assert rpt.consecutive_error <= 1e-4 * abs(rpt.base_top_eigenvalue)
        checked += 1
    assert checked == 20, f"only {checked} usable pairs in {attempts} draws"
    report(7, True, "limit formulas on 20 random pairs at 1e-4 by n=30")


def test_criterion_8_finite_scale_diagnostics():
    t0 = time.monotonic()
    base = rename_generators(schottky_sl2r(2, 4.0), PAIR)
    prof = gap_profile(base, 1, radius=6)
    assert prof.verdict == "pass" and prof.slope > 0.5

    degenerate = RepSpec(PAIR, {"a1": np.eye(2), "b1": base.image("b1")})
    assert gap_profile(degenerate, 1, radius=6).verdict == "fail"

    named = [("thm1i_d5", None), ("thm1i_d6", None), ("thm1i_dge7", {"d": 7}),
             ("thm1ii_d12", None), ("thm41_pattern", None),
             ("prop42_sl4", None), ("prop42_sl6", None)]
    agreements = []
    for name, params in named:
        rep = build_named(name, params, seed=2).rep
        sub = rep.alphabet.names[:2]
        for i in (2, 3):
            if i > rep.dim // 2:
                continue
            direct = gap_profile(rep, i, radius=4, subalphabet=sub)
            images = {l: exterior_power(rep.image(l), i)
                      for l in rep.alphabet.names}
            lifted = gap_profile(RepSpec(rep.alphabet, images), 1, radius=4,
                                 subalphabet=sub)
            assert direct.verdict == lifted.verdict, (name, i)
            agreements.append((name, i, direct.verdict))
    elapsed = time.monotonic() - t0
    report(8, True,
           f"gap diagnostics; {len(agreements)} exterior-index agreements "
           f"({elapsed:.1f}s)")


def test_criterion_9_limit_set_rank_one():
    for name in ("thm1ii_d12", "prop42_sl6"):
        rep = build_named(name, None, seed=7).rep
        sample = sample_limit_set(rep, 500, seed=13)
        assert sample.max_defect < 1e-6, (name, sample.max_defect)
    report(9, True, "500-sample rank-one defects below 1e-6 on both tensors")


def test_criterion_10_reproducibility(tmp_path):
    runs = {
        "build": ["build", "--name", "thm1ii_d12", "--param", "x=2",
                  "--seed", "7"],
        "reproduce": ["reproduce", "prop42_sl4", "--seed", "3"],
    }
    for label, args in runs.items():
        one, two = tmp_path / f"{label}1", tmp_path / f"{label}2"
        assert cli_main(args + ["--out", str(one)]) == 0
        assert cli_main(args + ["--out", str(two)]) == 0
        m1 = json.loads((one / "manifest.json").read_text())
        m2 = json.loads((two / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"], label
        for fname in m1["outputs"]:
            assert (one / fname).read_bytes() == (two / fname).read_bytes()
    report(10, True, "replayed manifests produce bit-identical outputs")
