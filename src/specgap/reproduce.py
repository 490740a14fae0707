"""Golden verification of the named constructions.

Each named build carries symbolic expectations instantiated at its own
parameters; this module evaluates the build's witnesses and diffs the
computed spectra against those expectations, then sweeps the obstruction
certificate across the exterior indices the construction claims.
"""

from __future__ import annotations

import math
from typing import Optional

from .builders import BuildResult, build_named
from .errors import InputError
from .linalg import classify, classify_exterior, spectrum, top_subset_products
from .obstruct import ObstructionCertificate, certify_not_limit
from .words import Presentation


def _check(checks: list, name: str, passed: bool, detail: str = ""):
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _moduli_match(checks, name, computed, expected, rtol):
    computed = list(computed[:len(expected)])
    ok = len(computed) == len(expected) and all(
        abs(c - e) <= rtol * abs(e) for c, e in zip(computed, expected))
    _check(checks, name, ok,
           f"computed {computed} vs expected {list(expected)} at rtol {rtol}")


def _nonreal_top_pair(checks, name, eigs, modulus, angle, rtol):
    z1, z2 = eigs[0], eigs[1]
    pair = abs(z1 - z2.conjugate()) <= rtol * abs(z1)
    nonreal = abs(z1.imag) > rtol * abs(z1)
    mod_ok = abs(abs(z1) - modulus) <= rtol * modulus
    ang_ok = abs(abs(math.atan2(abs(z1.imag), z1.real)) % math.pi
                 - angle % math.pi) <= 1e-6 + rtol * 10
    # third eigenvalue must sit strictly below the pair
    gap = len(eigs) <= 2 or abs(eigs[2]) < (1 - rtol) * abs(z1)
    _check(checks, name, pair and nonreal and mod_ok and ang_ok and gap,
           f"top pair {z1!r}, {z2!r}; expected modulus {modulus}, angle {angle}")


def _certificate(result: BuildResult, witness_keys, indices, tol
                 ) -> ObstructionCertificate:
    rep = result.rep
    pres = Presentation.free(rep.alphabet)
    witnesses = [result.witness(k) for k in witness_keys]
    return certify_not_limit(rep, witnesses, indices, pres, tol=tol,
                             assumptions=result.manifest["assumptions"])


def verify_golden(result: BuildResult, tol: float = 1e-6) -> dict:
    """Diff the build against its instantiated expectations.

    Returns a report dict with per-check entries, the certificate, and an
    overall flag.
    """
    name = result.manifest["construction"]
    fn = _VERIFIERS.get(name)
    if fn is None:
        raise InputError(f"no golden verifier for construction {name!r}")
    checks: list = []
    cert = fn(result, checks, tol)
    report = {
        "construction": name,
        "checks": checks,
        "passed": all(c["passed"] for c in checks)
        and (cert is None or cert.covered_all),
    }
    if cert is not None:
        report["certificate"] = cert.to_json()
    return report


def _verify_d5(result: BuildResult, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    main = result.witness("main")
    m = rep.evaluate(main)
    _moduli_match(checks, "first three moduli", spectrum(m).moduli,
                  exp["first3_moduli"], tol)
    w2 = classify_exterior(m, 2, tol)
    _check(checks, "second exterior power not positively semiproximal",
           not w2.positively_semiproximal and not w2.indeterminate,
           f"top {w2.top_moduli[:3]}")
    aux = classify(rep.evaluate(result.witness("aux")), tol)
    _check(checks, "auxiliary witness has negative top pair",
           aux.semiproximal and not aux.positively_semiproximal,
           f"top eigenvalues {aux.top_moduli[:2]}")
    cert = _certificate(result, ("main", "aux"), (1, 2), tol)
    _check(checks, "certificate covers indices 1..2", cert.covered_all)
    return cert


def _verify_d6(result: BuildResult, checks, tol):
    rep = result.rep
    main = result.witness("main")
    m = rep.evaluate(main)
    pc = classify(m, tol)
    _check(checks, "witness proximal with negative top eigenvalue",
           pc.proximal[0] and pc.top_eigenvalue is not None
           and pc.top_eigenvalue.real < 0,
           f"top {pc.top_eigenvalue!r}")
    w2 = classify_exterior(m, 2, tol)
    _check(checks, "second exterior power has negative top eigenvalue",
           w2.p1_proximal and w2.top_eigenvalue is not None
           and w2.top_eigenvalue.real < 0,
           f"top {w2.top_eigenvalue!r}")
    w3 = classify_exterior(m, 3, tol)
    expected_top = result.manifest["derived"]["expected_wedge3_top"]
    top_ok = (w3.top_multiplicity == 2 and w3.semiproximal
              and not w3.positively_semiproximal)
    val_ok = abs(w3.top_modulus - abs(expected_top)) <= tol * abs(expected_top)
    _check(checks, "third exterior power: negative top of multiplicity two",
           top_ok and val_ok,
           f"multiplicity {w3.top_multiplicity}, modulus {w3.top_modulus} "
           f"vs {abs(expected_top)}")
    cert = _certificate(result, ("main",), (1, 2, 3), tol)
    _check(checks, "certificate covers indices 1..3", cert.covered_all)
    return cert


def _verify_dge7(result: BuildResult, checks, tol):
    rep = result.rep
    d = rep.dim
    m = rep.evaluate(result.witness("main"))
    for i in range(1, d - 3):
        cls = classify_exterior(m, i, tol)
        _check(checks, f"exterior power {i} proximal, not positively",
               cls.p1_proximal and cls.top_eigenvalue is not None
               and cls.top_eigenvalue.real < 0
               and abs(cls.top_eigenvalue.imag) <= tol * cls.top_modulus,
               f"top {cls.top_eigenvalue!r}")
    cert = _certificate(result, ("main",), range(1, d // 2 + 1), tol)
    _check(checks, f"certificate covers indices 1..{d // 2}", cert.covered_all)
    return cert


def _verify_d12(result: BuildResult, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    main = result.witness("main")
    second = result.witness("second")
    gm = rep.evaluate(main)
    hm = rep.evaluate(second)
    _moduli_match(checks, "first seven moduli", spectrum(gm).moduli,
                  exp["first7_moduli"], 1e-9)
    _moduli_match(checks, "second witness first five moduli",
                  spectrum(hm).moduli, exp["h_first5_moduli"], 1e-9)
    for i in exp["coverage"]["main"]:
        cls = classify_exterior(gm, i, tol)
        _check(checks, f"exterior power {i} fails positive semiproximality",
               not cls.positively_semiproximal and not cls.indeterminate,
               f"top moduli {cls.top_moduli[:3]}")
    w3 = classify_exterior(hm, 3, tol)
    expected_top = exp["wedge3_h_top"]
    _check(checks, "third exterior power of second witness: negative real top",
           w3.p1_proximal and w3.top_eigenvalue is not None
           and w3.top_eigenvalue.real < 0
           and abs(w3.top_eigenvalue.real - expected_top)
           <= 1e-9 * abs(expected_top),
           f"top {w3.top_eigenvalue!r} vs expected {expected_top}")
    cert = _certificate(result, ("main", "second"), range(1, 7), tol)
    _check(checks, "two-witness coverage of indices 1..6", cert.covered_all)
    cover = {e.index: e.witness for e in cert.entries}
    _check(checks, "index 3 is covered by the second witness",
           cover.get(3) == str(second), f"coverage {cover}")
    return cert


def _verify_thm41(result: BuildResult, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    n = result.manifest["params"]["n"]
    main = result.witness("main")
    second = result.witness("second")
    gm = rep.evaluate(main)
    hm = rep.evaluate(second)
    _moduli_match(checks, f"first {2 * n - 1} moduli", spectrum(gm).moduli,
                  exp["first_moduli"], 1e-9)
    _moduli_match(checks, f"second witness first {n + 1} moduli",
                  spectrum(hm).moduli, exp["h_first_moduli"], 1e-9)
    cert = _certificate(result, ("main", "second"),
                        range(1, (3 * n) // 2 + 1), tol)
    _check(checks, f"certificate covers indices 1..{(3 * n) // 2}",
           cert.covered_all)
    cover = {e.index: e.witness for e in cert.entries}
    parity_ok = True
    for i in range(2, n + 2):
        want = str(main) if i % 2 == 0 else str(second)
        if cover.get(i) != want:
            parity_ok = False
    _check(checks, "parity coverage pattern", parity_ok, f"coverage {cover}")
    return cert


def _verify_sl4(result: BuildResult, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    theta = result.manifest["params"]["theta"]
    a1 = spectrum(rep.evaluate(result.witness("main"))).eigenvalues
    _nonreal_top_pair(checks, "first generator image: non-real top pair",
                      a1, exp["top_pair_modulus"], theta, tol)
    a2 = spectrum(rep.evaluate(result.witness("second"))).eigenvalues
    _nonreal_top_pair(checks, "second exterior of second generator",
                      top_subset_products(a2, 2, 3), exp["wedge2_pair_modulus"],
                      theta, tol)
    cert = _certificate(result, ("parity_main", "parity_second"), (1, 2), tol)
    _check(checks, "certificate covers indices 1..2", cert.covered_all)
    return cert


def _verify_sl6(result: BuildResult, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    theta = result.manifest["params"]["theta"]
    g = spectrum(rep.evaluate(result.witness("main")))
    h = spectrum(rep.evaluate(result.witness("second"))).eigenvalues
    _moduli_match(checks, "six moduli of the first generator image",
                  g.moduli, exp["g_moduli"], tol)
    _nonreal_top_pair(checks, "first generator image: non-real top pair",
                      g.eigenvalues, exp["g_top_pair_modulus"], theta, tol)
    _nonreal_top_pair(checks, "third exterior power: non-real top pair",
                      top_subset_products(g.eigenvalues, 3, 3),
                      exp["wedge3_pair_modulus"], theta, tol)
    _nonreal_top_pair(checks, "second exterior of second generator",
                      top_subset_products(h, 2, 3), exp["wedge2_h_pair_modulus"],
                      theta, tol)
    cert = _certificate(result, ("parity_main", "parity_second"), (1, 2, 3), tol)
    _check(checks, "certificate covers indices 1..3", cert.covered_all)
    return cert


_VERIFIERS = {
    "thm1i_d5": _verify_d5,
    "thm1i_d6": _verify_d6,
    "thm1i_dge7": _verify_dge7,
    "thm1ii_d12": _verify_d12,
    "thm41_pattern": _verify_thm41,
    "prop42_sl4": _verify_sl4,
    "prop42_sl6": _verify_sl6,
}


def run_reproduction(name: str, params: Optional[dict] = None, seed: int = 0,
                     tol: float = 1e-6) -> dict:
    """Build a named construction and verify its golden expectations."""
    result = build_named(name, params, seed=seed, tol=tol)
    report = verify_golden(result, tol=tol)
    return {
        "construction": name,
        "manifest": result.manifest,
        "golden": report,
        "passed": report["passed"],
    }
