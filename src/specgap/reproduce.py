"""Golden verification of the named constructions.

Each named build carries symbolic expectations instantiated at its own
parameters; this module evaluates the build's witnesses and diffs the
computed spectra against those expectations, reading its exterior-power
checks from the one obstruction certificate it makes for the build.
"""

from __future__ import annotations

import math
from typing import Optional

from .builders import BuildResult, build_named
from .errors import InputError
from .linalg import classify, classify_exterior, spectrum, top_subset_products
from .obstruct import ObstructionCertificate, certify_not_limit
from .words import Presentation, Word, in_index_two_core


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


def _covered_by(cert: ObstructionCertificate, i: int, witness: Word):
    """(classification, "") when ``witness`` covers index ``i`` of the
    certificate; otherwise (None, why it does not)."""
    entry = cert.entries[i - 1]
    if entry.witness == str(witness):
        return entry.classification, ""
    return None, (f"index {i} is covered by {entry.witness}" if entry.covered
                  else f"index {i} is not covered: {entry.reason}")


def verify_golden(result: BuildResult, tol: float = 1e-6) -> dict:
    """Certify the build once, on the manifest's witnesses in the index-two
    core (in manifest order) at indices 1..dim//2, and diff the build
    against its instantiated expectations, reading exterior-power checks
    from that certificate.  Returns a report dict with per-check entries,
    the certificate, and an overall flag."""
    name = result.manifest["construction"]
    fn = _VERIFIERS.get(name)
    if fn is None:
        raise InputError(f"no golden verifier for construction {name!r}")
    rep = result.rep
    pres = Presentation.free(rep.alphabet)
    witnesses = [w for w in map(result.witness, result.manifest["witnesses"])
                 if in_index_two_core(w, pres)]
    top = rep.dim // 2
    cert = certify_not_limit(rep, witnesses, range(1, top + 1), pres, tol=tol,
                             assumptions=result.manifest["assumptions"])
    checks: list = []
    fn(result, cert, checks, tol)
    _check(checks, f"certificate covers indices 1..{top}", cert.covered_all)
    return {
        "construction": name,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "certificate": cert.to_json(),
    }


def _verify_d5(result: BuildResult, cert, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    main = result.witness("main")
    _moduli_match(checks, "first three moduli",
                  spectrum(rep.evaluate(main)).moduli, exp["first3_moduli"], tol)
    w2, why = _covered_by(cert, 2, main)
    _check(checks, "second exterior power not positively semiproximal",
           w2 is not None, why or f"top {w2.top_moduli[:3]}")
    aux = classify(rep.evaluate(result.witness("aux")), tol)
    _check(checks, "auxiliary witness has negative top pair",
           aux.semiproximal and not aux.positively_semiproximal,
           f"top eigenvalues {aux.top_moduli[:2]}")


def _verify_d6(result: BuildResult, cert, checks, tol):
    exp = result.manifest["expected"]
    main = result.witness("main")
    pc = classify(result.rep.evaluate(main), tol)
    _check(checks, "witness proximal with negative top eigenvalue",
           pc.proximal[0] and pc.top_eigenvalue is not None
           and pc.top_eigenvalue.real < 0,
           f"top {pc.top_eigenvalue!r}")
    w2, why = _covered_by(cert, 2, main)
    _check(checks, "second exterior power has negative top eigenvalue",
           w2 is not None and w2.p1_proximal and w2.top_eigenvalue is not None
           and w2.top_eigenvalue.real < 0,
           why or f"top {w2.top_eigenvalue!r}")
    w3, why = _covered_by(cert, 3, main)
    expected_top = result.manifest["derived"]["expected_wedge3_top"]
    _check(checks, "third exterior power: negative top of multiplicity two",
           w3 is not None
           and w3.top_multiplicity == exp["wedge3_top_multiplicity"]
           and w3.semiproximal and not w3.positively_semiproximal
           and abs(w3.top_modulus - abs(expected_top))
           <= tol * abs(expected_top),
           why or f"multiplicity {w3.top_multiplicity}, modulus "
           f"{w3.top_modulus} vs {abs(expected_top)}")


def _verify_dge7(result: BuildResult, cert, checks, tol):
    # indices past dim//2 are outside the certificate: classify them here
    m = result.rep.evaluate(result.witness("main"))
    for i in result.manifest["expected"]["wedge_failures"]:
        cls = classify_exterior(m, i, tol)
        _check(checks, f"exterior power {i} proximal, not positively",
               cls.p1_proximal and cls.top_eigenvalue is not None
               and cls.top_eigenvalue.real < 0
               and abs(cls.top_eigenvalue.imag) <= tol * cls.top_modulus,
               f"top {cls.top_eigenvalue!r}")


def _verify_d12(result: BuildResult, cert, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    main = result.witness("main")
    second = result.witness("second")
    _moduli_match(checks, "first seven moduli",
                  spectrum(rep.evaluate(main)).moduli, exp["first7_moduli"], 1e-9)
    _moduli_match(checks, "second witness first five moduli",
                  spectrum(rep.evaluate(second)).moduli,
                  exp["h_first5_moduli"], 1e-9)
    for i in exp["coverage"]["main"]:
        cls, why = _covered_by(cert, i, main)
        _check(checks, f"exterior power {i} fails positive semiproximality",
               cls is not None, why or f"top moduli {cls.top_moduli[:3]}")
    w3, why = _covered_by(cert, 3, second)
    expected_top = exp["wedge3_h_top"]
    _check(checks, "third exterior power of second witness: negative real top",
           w3 is not None and w3.p1_proximal and w3.top_eigenvalue is not None
           and w3.top_eigenvalue.real < 0
           and abs(w3.top_eigenvalue.real - expected_top)
           <= 1e-9 * abs(expected_top),
           why or f"top {w3.top_eigenvalue!r} vs expected {expected_top}")


def _verify_thm41(result: BuildResult, cert, checks, tol):
    rep = result.rep
    exp = result.manifest["expected"]
    n = result.manifest["params"]["n"]
    main = result.witness("main")
    second = result.witness("second")
    _moduli_match(checks, f"first {2 * n - 1} moduli",
                  spectrum(rep.evaluate(main)).moduli, exp["first_moduli"], 1e-9)
    _moduli_match(checks, f"second witness first {n + 1} moduli",
                  spectrum(rep.evaluate(second)).moduli,
                  exp["h_first_moduli"], 1e-9)
    cover = {e.index: e.witness for e in cert.entries}
    parity_ok = all(cover.get(i) == str(main if i % 2 == 0 else second)
                    for i in range(2, n + 2))
    _check(checks, "parity coverage pattern", parity_ok, f"coverage {cover}")


def _verify_sl4(result: BuildResult, cert, checks, tol):
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


def _verify_sl6(result: BuildResult, cert, checks, tol):
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
