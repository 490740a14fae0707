"""Golden verification of the named constructions.

Each named build declares its golden checks in ``manifest["expected"]``,
instantiated at its own parameters.  This module evaluates every declared
check against the build's witnesses, reading exterior-power checks from the
one obstruction certificate it makes for the build.  A check is a dict with
a ``"name"``, a ``"witness"`` (a key of ``manifest["witnesses"]``) and
exactly one kind:

* ``"moduli": [...]`` with ``"rtol"``: the leading moduli of the witness
  image;
* ``"top_pair": i`` with ``"modulus"`` and ``"angle"``: the two largest
  i-subset products of the image's eigenvalues (the eigenvalues themselves
  for i = 1) are a non-real conjugate pair strictly above the next one;
* ``"index": i``: the witness's i-th exterior power fails positive
  semiproximality decisively.  Up to dim//2 the check reads the
  certificate, whose entry i this witness must cover; past it, the power is
  classified here.  Optional conditions: ``"top"`` (None or a value) asks
  for a proximal negative real top, within 1e-9 of the value when one is
  given; ``"semiproximal"`` for a real in the top class (negative, since
  the power is not positively semiproximal) or none; ``"multiplicity"``
  with ``"top_modulus"`` for the top class, its modulus checked at ``tol``.
"""

from __future__ import annotations

import math
from typing import Optional

from .builders import BuildResult, build_named
from .errors import InputError
from .linalg import classify_exterior, top_subset_products
from .obstruct import certify_not_limit
from .reps import spectra
from .words import Presentation, in_index_two_core


def _moduli(check, eigs):
    expected = check["moduli"]
    computed = [abs(z) for z in eigs[:len(expected)]]
    ok = len(computed) == len(expected) and all(
        abs(c - e) <= check["rtol"] * abs(e) for c, e in zip(computed, expected))
    return ok, (f"computed {computed} vs expected {list(expected)} "
                f"at rtol {check['rtol']}")


def _top_pair(check, eigs, tol):
    i, modulus, angle = check["top_pair"], check["modulus"], check["angle"]
    eigs = eigs if i == 1 else top_subset_products(eigs, i, 3)
    z1, z2 = eigs[0], eigs[1]
    pair = abs(z1 - z2.conjugate()) <= tol * abs(z1)
    nonreal = abs(z1.imag) > tol * abs(z1)
    mod_ok = abs(abs(z1) - modulus) <= tol * modulus
    ang_ok = abs(abs(math.atan2(abs(z1.imag), z1.real)) % math.pi
                 - angle % math.pi) <= 1e-6 + tol * 10
    # the next value must sit strictly below the pair
    gap = len(eigs) <= 2 or abs(eigs[2]) < (1 - tol) * abs(z1)
    return (pair and nonreal and mod_ok and ang_ok and gap,
            f"top pair {z1!r}, {z2!r}; expected modulus {modulus}, angle {angle}")


def _index(check, cls, tol):
    ok = not cls.indeterminate and not cls.positively_semiproximal
    detail = (f"top {cls.top_eigenvalue!r}, modulus {cls.top_modulus}, "
              f"multiplicity {cls.top_multiplicity}")
    if "top" in check:
        top, value = cls.top_eigenvalue, check["top"]
        ok = ok and (cls.p1_proximal and top is not None and top.real < 0
                     and abs(top.imag) <= tol * cls.top_modulus
                     and (value is None
                          or abs(top.real - value) <= 1e-9 * abs(value)))
        if value is not None:
            detail += f"; expected top {value}"
    if "semiproximal" in check:
        ok = ok and cls.semiproximal == check["semiproximal"]
    if "multiplicity" in check:
        expected = check["top_modulus"]
        ok = ok and (cls.top_multiplicity == check["multiplicity"]
                     and abs(cls.top_modulus - expected) <= tol * expected)
        detail += (f"; expected multiplicity {check['multiplicity']}, "
                   f"modulus {expected}")
    return ok, detail


def _kind(check) -> str:
    """The kind of a declared check; a check that does not declare exactly
    one kind, with its required keys and no others, is refused."""
    fields = {"moduli": ({"rtol"}, set()),
              "top_pair": ({"modulus", "angle"}, set()),
              "index": (set(), {"top", "semiproximal", "multiplicity"})}
    kinds = [k for k in fields if k in check]
    if len(kinds) != 1:
        raise InputError(f"check {check.get('name')!r} declares kinds {kinds};"
                         f" exactly one of {sorted(fields)} is required")
    required, optional = fields[kinds[0]]
    required = required | {"name", "witness"} | (
        {"multiplicity", "top_modulus"} if "multiplicity" in check else set())
    keys = set(check) - {kinds[0]}
    if not required <= keys <= required | optional:
        raise InputError(f"check {check.get('name')!r} of kind {kinds[0]!r}"
                         f" has keys {sorted(keys)}; it needs {sorted(required)}"
                         f" and may add {sorted(optional - required)}")
    return kinds[0]


def verify_golden(result: BuildResult, tol: float = 1e-6) -> dict:
    """Certify the build once, on the manifest's witnesses in the index-two
    core (in manifest order) at indices 1..dim//2, and evaluate the build's
    declared checks in order, then the certificate's coverage.  Returns a
    report dict with per-check entries, the certificate, and an overall
    flag."""
    manifest = result.manifest
    declared = manifest.get("expected")
    if not isinstance(declared, list):
        raise InputError(f"construction {manifest.get('construction')!r}"
                         " declares no list of golden checks")
    rep = result.rep
    pres = Presentation.free(rep.alphabet)
    witnesses = [w for w in map(result.witness, manifest["witnesses"])
                 if in_index_two_core(w, pres)]
    top = rep.dim // 2
    cert = certify_not_limit(rep, witnesses, range(1, top + 1), pres, tol=tol,
                             assumptions=manifest["assumptions"])

    kinds = [_kind(check) for check in declared]
    keys = [check["witness"] for check, kind in zip(declared, kinds)
            if kind != "index" or not 1 <= check["index"] <= top]
    spec = dict(zip(keys, spectra(rep, list(map(result.witness, keys)))))
    checks = []
    for check, kind in zip(declared, kinds):
        key = check["witness"]
        if kind == "moduli":
            ok, detail = _moduli(check, spec[key])
        elif kind == "top_pair":
            ok, detail = _top_pair(check, spec[key], tol)
        elif not 1 <= check["index"] <= top:
            ok, detail = _index(check, classify_exterior(spec[key],
                                                         check["index"], tol),
                                tol)
        else:
            entry = cert.entries[check["index"] - 1]
            if entry.witness == str(result.witness(key)):
                ok, detail = _index(check, entry.classification, tol)
            else:
                ok, detail = False, (
                    f"index {entry.index} is covered by {entry.witness}"
                    if entry.covered
                    else f"index {entry.index} is not covered: {entry.reason}")
        checks.append({"name": check["name"], "passed": bool(ok),
                       "detail": detail})
    checks.append({"name": f"certificate covers indices 1..{top}",
                   "passed": cert.covered_all, "detail": ""})
    return {
        "construction": manifest["construction"],
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "certificate": cert.to_json(),
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
