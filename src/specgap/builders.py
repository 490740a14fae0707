"""Named block/tensor constructions with validated inequality gates.

Each builder returns a concrete representation plus a manifest recording
parameters, derived quantities (search results, characters, margins), the
designated witness words, gate evaluations, and the assumptions that are
declared rather than verified.  :func:`build_named` stamps the
construction id, dimension, seed and tolerance onto every manifest, and the
id, seed and parameters onto the representation's provenance.  Golden
expectations are symbolic in the parameters and instantiated at build time,
so any gate-satisfying choice validates.

Construction ids (the CLI contract):

* ``thm1i_d5``   five-dimensional character-scaled realification block;
* ``thm1i_d6``   spin block plus a dominating pulled-back line pair;
* ``thm1i_dge7`` the d >= 7 chain of characters between two dominations;
* ``thm1ii_d12`` the 4 (x) 3 tensor with two exact-pattern witnesses;
* ``thm41_pattern`` the n-dimensional diagonal tensor pattern family;
* ``prop42_sl4`` rotation-block against a scaled 2x2 family;
* ``prop42_sl6`` 2x2 family tensored with rotation-scaling 3x3 blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .errors import ConstructionError, InputError
from .linalg import spectrum
from .obstruct import check_domination, find_negative_lambda
from .reps import (Character, ComplexRep2, RepSpec, axis_dilation, block_sum,
                   common_eigenvector_defect, pingpong_report, pull_back,
                   realify_lift, rename_generators, restrict_rep,
                   rotation_block_rep, scale_by_character, scaled_rotation_rep,
                   schottky_sl2r, spin_lift, spin_so31, random_unimodular,
                   tensor_rep)
from .words import (Alphabet, Word, commutator, free_part_alphabet,
                    full_alphabet, retraction_to_free_part, transport)

_CYCLE3 = np.array([[0.0, 0.0, 1.0],
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0]])

STANDARD_ASSUMPTIONS = (
    "the representation is a homomorphism of the free group on its alphabet;"
    " relations of the intended domain group are not imposed",
    "subgroup hypotheses (quasiconvexity, connected boundary, infinite index)"
    " are declared, not verified",
    "finite-radius domination and gap checks are evidence, not proofs",
)


@dataclass(frozen=True)
class BuildResult:
    rep: RepSpec
    manifest: dict

    def witness(self, key: str) -> Word:
        return Word.parse(self.rep.alphabet, self.manifest["witnesses"][key])


def _gate(gates: list, name: str, lhs: float, rhs: float):
    ok = lhs > rhs
    gates.append({"inequality": name, "lhs": lhs, "rhs": rhs, "satisfied": ok})
    if not ok:
        raise ConstructionError(
            f"gate violated: {name} ({lhs!r} <= {rhs!r})", inequality=name)


def _resolve(params: Optional[Mapping], defaults: dict) -> dict:
    out = dict(defaults)
    for key, val in (params or {}).items():
        if key not in defaults:
            raise InputError(f"unknown parameter {key!r}; known: {sorted(defaults)}")
        out[key] = val
    return out


def _boost4(c: float) -> np.ndarray:
    return np.diag([c, 1.0, 1.0, 1.0 / c])


def _ndiag(n: int, c: float) -> np.ndarray:
    entries = [c] + [1.0] * (n - 2) + [1.0 / c]
    return np.diag(entries)


def _random_sl2c(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) > 1e-6:
            return m / np.sqrt(det)


def _search_pair(spread: float) -> tuple[RepSpec, ComplexRep2]:
    """The Schottky pair ``base`` on (a1, b1) and a 2x2 family over the full
    alphabet of genus 1: the images of ``base`` on a1, b1, real dilations on
    the other surface letters, loxodromic complex dilations on the c/d
    letters.  The global ping-pong status is reported, not required;
    searches only run in the verified (a1, b1) pair."""
    base = rename_generators(schottky_sl2r(2, spread), Alphabet(("a1", "b1")))
    alphabet = full_alphabet(1)
    axes: dict[str, tuple[float, complex]] = {}
    rest = [n for n in alphabet.names if n not in ("a1", "b1")]
    count = len(rest)
    for k, label in enumerate(rest):
        # low-discrepancy angles keep the fixed lines distinct
        theta = (0.08 + 0.61803398875 * (k + 1)) % 1.0 * (math.pi / 2)
        strength = spread ** (1.0 + (k + 1) / (count + 1))
        if label.startswith(("c", "d")):
            phase = math.pi * (k + 1) / (3 * (count + 1))
            axes[label] = (theta, strength * np.exp(1j * phase))
        else:
            axes[label] = (theta, complex(strength))
    images = {l: axis_dilation(*axes[l]) for l in rest}
    images["a1"] = np.array(base.image("a1"), dtype=complex)
    images["b1"] = np.array(base.image("b1"), dtype=complex)
    prov = {"construction": "ambient_family",
            "pingpong": pingpong_report(list(axes.values()))}
    return base, ComplexRep2(alphabet, images, prov)


# ---------------------------------------------------------------------------


def _build_thm1i_d5(params, seed, tol) -> tuple[RepSpec, dict]:
    p = _resolve(params, {"spread": 4.0, "headroom": 2.0})
    g = 1
    base, ambient = _search_pair(float(p["spread"]))
    retr = retraction_to_free_part(g)
    rho1 = realify_lift(ambient)

    coset = Word.parse(base.alphabet, "a1^2")
    sw = find_negative_lambda(base, coset, tol=tol)
    lam = sw.lambda1
    gates: list = []
    x = (float(p["headroom"]) * abs(lam)) ** 0.8
    _gate(gates, "x^(5/4) > ell1(rho1(w a1^2))", x ** 1.25, abs(lam))

    eps_free = Character(free_part_alphabet(g),
                         {n: (math.sqrt(x) if n == "a1" else 1.0)
                          for n in free_part_alphabet(g).names})
    eps = Character.pulled_back(eps_free, retr)
    rep = scale_by_character(rho1, eps, Fraction(-1, 4))

    witness = transport(sw.word, rep.alphabet)
    aux = transport(sw.base_word, rep.alphabet)
    manifest = {
        "params": {"spread": float(p["spread"]), "headroom": float(p["headroom"])},
        "derived": {"lambda1": lam, "x": x,
                    "character_on_witness": eps_free.value(sw.word)},
        "witnesses": {"main": str(witness), "aux": str(aux)},
        "expected": {"first3_moduli": [x, x ** -0.25 * abs(lam),
                                       x ** -0.25 * abs(lam)],
                     "wedge_failures": [1, 2]},
        "gates": gates,
        "search": sw.to_json(),
        "pingpong": {"pair": base.provenance["pingpong"],
                     "ambient": ambient.provenance["pingpong"]},
        "assumptions": list(STANDARD_ASSUMPTIONS),
        "character_convention":
            "both blocks read the character through the retraction",
    }
    return rep, manifest


def _dominated_pair(p) -> tuple[RepSpec, RepSpec, dict, dict]:
    """Spin lift rho0 of the ambient family and a Schottky pair j on
    (a1, b1) that dominates it on the ball of radius ``dom_radius``:
    ell1(j(gamma)) >= ell1(rho0(gamma))^2.  Returns rho0, j, the pair's
    parameters, and the manifest entries recording the domination sweep and
    the ping-pong checks."""
    pair = {"spread": float(p["spread"]), "dom_margin": float(p["dom_margin"]),
            "dom_radius": int(p["dom_radius"])}
    _, ambient = _search_pair(pair["spread"])
    rho0 = spin_lift(ambient)

    spread_j = (pair["spread"] ** 2) ** 2 * pair["dom_margin"]
    j = rename_generators(schottky_sl2r(2, spread_j), Alphabet(("a1", "b1")))
    dom = check_domination(j, restrict_rep(rho0, ("a1", "b1")), 2.0,
                           pair["dom_radius"])
    if not dom.passed:
        raise ConstructionError(
            "domination failed on the ball: ell1(j(gamma)) >= ell1(rho0(gamma))^2",
            inequality="ell1(j) >= ell1(rho0)^2")
    checks = {"domination": dom.to_json(),
              "pingpong": {"pair": j.provenance["pingpong"],
                           "ambient": ambient.provenance["pingpong"]}}
    return rho0, j, pair, checks


def _build_thm1i_d6(params, seed, tol) -> tuple[RepSpec, dict]:
    p = _resolve(params, {"spread": 4.0, "dom_margin": 1.25, "dom_radius": 6})
    rho0, j, pair, checks = _dominated_pair(p)
    sw = find_negative_lambda(j, Word.identity(j.alphabet), tol=tol)
    rep = block_sum([rho0, pull_back(j, retraction_to_free_part(1))])

    witness = transport(sw.word, rep.alphabet)
    m0 = spectrum(rho0.evaluate(witness)).moduli[0]
    gates: list = []
    _gate(gates, "ell1(j(w)) > ell1(rho0(w))", abs(sw.lambda1), m0)
    manifest = {
        "params": pair,
        "derived": {"lambda1": sw.lambda1, "rho0_top": m0,
                    "expected_wedge3_top": sw.lambda1 * m0},
        "witnesses": {"main": str(witness)},
        "expected": {"wedge3_top_multiplicity": 2,
                     "wedge_failures": [1, 2, 3]},
        "gates": gates,
        "search": sw.to_json(),
        "assumptions": list(STANDARD_ASSUMPTIONS),
        **checks,
    }
    return rep, manifest


def _build_thm1i_dge7(params, seed, tol) -> tuple[RepSpec, dict]:
    p = _resolve(params, {"d": 7, "spread": 4.0, "dom_margin": 1.25,
                          "dom_radius": 6})
    d = int(p["d"])
    if d < 7:
        raise InputError("this construction needs dimension >= 7")
    g = 1
    rho0, j, pair, checks = _dominated_pair(p)
    retr = retraction_to_free_part(g)

    coset = Word.parse(j.alphabet, "a1^2")
    sw = find_negative_lambda(j, coset, tol=tol)
    lam = abs(sw.lambda1)

    full = full_alphabet(g)
    witness = transport(sw.word, full)
    m0 = spectrum(rho0.evaluate(witness)).moduli[0]
    gates: list = []
    _gate(gates, "ell1(j(w a1^2)) > ell1(rho0(w a1^2))", lam, m0)

    n_chars = d - 6
    ratio = (lam / m0) ** (1.0 / (d - 5))
    char_values = [m0 * ratio ** (d - 5 - k) for k in range(1, n_chars + 1)]
    for v in char_values:
        _gate(gates, "ell1(j(w a1^2)) > eps(a1^2)", lam, v)
        _gate(gates, "eps(a1^2) > ell1(rho0(w a1^2))", v, m0)

    jr = pull_back(j, retr)
    chars = [Character.pulled_back(
        Character(free_part_alphabet(g),
                  {n: (math.sqrt(v) if n == "a1" else 1.0)
                   for n in free_part_alphabet(g).names}), retr)
        for v in char_values]
    images = {}
    for label in full.names:
        blocks = np.zeros((d, d))
        blocks[:4, :4] = rho0.image(label)
        blocks[4:6, 4:6] = jr.image(label)
        for k, ch in enumerate(chars):
            blocks[6 + k, 6 + k] = ch.value(label)
        det = float(np.prod([ch.value(label) for ch in chars])) if chars else 1.0
        images[label] = blocks / det ** (1.0 / d)
    rep = RepSpec(full, images)
    manifest = {
        "params": {"d": d, **pair},
        "derived": {"lambda1": sw.lambda1, "rho0_top": m0,
                    "character_chain": char_values},
        "witnesses": {"main": str(witness)},
        "expected": {"wedge_failures": list(range(1, d - 3))},
        "gates": gates,
        "search": sw.to_json(),
        "assumptions": list(STANDARD_ASSUMPTIONS),
        "note": "the sign search runs on the dominating pair as the evident"
                " intent of the construction",
        **checks,
    }
    return rep, manifest


def _build_thm1ii_d12(params, seed, tol) -> tuple[RepSpec, dict]:
    p = _resolve(params, {"lam": -9.0, "mu": 2.0, "x": 2.0,
                          "s": -9.0, "nu": 1.2})
    lam, mu, x = float(p["lam"]), float(p["mu"]), float(p["x"])
    s, nu = float(p["s"]), float(p["nu"])
    gates: list = []
    _gate(gates, "lam < 0", 0.0, lam)
    _gate(gates, "s < 0", 0.0, s)
    _gate(gates, "mu > 1", mu, 1.0)
    _gate(gates, "nu > 1", nu, 1.0)
    _gate(gates, "x > 0", x, 0.0)
    _gate(gates, "|lam| > x^3", abs(lam), x ** 3)
    _gate(gates, "x^3 > |lam|/mu^2", x ** 3, abs(lam) / mu ** 2)
    _gate(gates, "|lam|/mu^2 > 1", abs(lam) / mu ** 2, 1.0)
    _gate(gates, "|s| > nu^4", abs(s), nu ** 4)

    alphabet = free_part_alphabet(4)
    rng = np.random.default_rng(seed)
    spin_images = {
        "a1": _boost4(1.5), "b1": _boost4(1.25),
        "a2": _boost4(mu), "b2": _boost4(1.35),
        "a3": _boost4(1.45), "b3": _boost4(nu),
        "a4": spin_so31(_random_sl2c(rng)),
        "b4": spin_so31(_random_sl2c(rng)),
    }
    line_images = {
        "a1": np.diag([1.0, -1.0, -1.0]), "b1": _CYCLE3.copy(),
        "a2": np.diag([math.sqrt(abs(lam) / x),
                       1.0 / math.sqrt(abs(lam) * x), x]),
        "b2": np.diag([1.0, -1.0, -1.0]), "a3": _CYCLE3.copy(),
        "b3": np.diag([math.sqrt(abs(s)), 1.0 / math.sqrt(abs(s)), 1.0]),
        "a4": random_unimodular(3, rng),
        "b4": random_unimodular(3, rng),
    }
    spin_part = RepSpec(alphabet, spin_images)
    line_part = RepSpec(alphabet, line_images)
    rep = tensor_rep(spin_part, line_part)

    w1 = commutator(Word.parse(alphabet, "a1"), Word.parse(alphabet, "b1")) \
        * Word.parse(alphabet, "a2^2")
    w2 = commutator(Word.parse(alphabet, "b2"), Word.parse(alphabet, "a3")) \
        * Word.parse(alphabet, "b3^2")
    first7 = [abs(lam) * mu ** 2 / x, x ** 2 * mu ** 2,
              abs(lam) / x, abs(lam) / x, x ** 2, x ** 2,
              abs(lam) / (x * mu ** 2)]
    h_first5 = [abs(s) * nu ** 2, abs(s), abs(s), abs(s) / nu ** 2, nu ** 2]
    zariski = common_eigenvector_defect(
        [line_images[l] for l in alphabet.names])
    manifest = {
        "params": {"lam": lam, "mu": mu, "x": x, "s": s, "nu": nu},
        "derived": {"witness_character_value": x ** 2},
        "witnesses": {"main": str(w1), "second": str(w2)},
        "expected": {
            "first7_moduli": first7,
            "h_first5_moduli": h_first5,
            "wedge3_h_top": s ** 3 * nu ** 2,
            "coverage": {"main": [1, 2, 4, 5, 6], "second": [3]},
        },
        "gates": gates,
        "zariski_heuristic": {
            "method": "no common eigenvector among 3x3 block images",
            "min_defect": zariski,
            "passed": zariski > 1e-6,
        },
        "assumptions": list(STANDARD_ASSUMPTIONS) + [
            "witness images are realized by exactly commuting diagonal and"
            " signed-permutation blocks; spectra are exact by construction",
        ],
    }
    return rep, manifest


def _build_thm41_pattern(params, seed, tol) -> tuple[RepSpec, dict]:
    p = _resolve(params, {"n": 5, "s": -3.0, "p": 1.2, "q": None})
    n = int(p["n"])
    s = float(p["s"])
    pp = float(p["p"])
    q = float(p["q"]) if p["q"] is not None else -1.5 * pp ** 10
    gates: list = []
    if n % 2 == 0:
        raise ConstructionError("pattern dimension parameter n must be odd",
                                inequality="n odd")
    _gate(gates, "n >= 5", float(n), 4.0)
    _gate(gates, "s < 0", 0.0, s)
    _gate(gates, "|s| > 1", abs(s), 1.0)
    _gate(gates, "p > 1", pp, 1.0)
    _gate(gates, "q < 0", 0.0, q)
    _gate(gates, "|q| > p^10", abs(q), pp ** 10)

    alphabet = Alphabet(("a1", "b1", "a2", "b2"))
    big_images = {
        "a1": _ndiag(n, abs(s)), "b1": _ndiag(n, 1.3),
        "a2": _ndiag(n, pp), "b2": _ndiag(n, 1.15),
    }
    line_images = {
        "a1": np.diag([-abs(s), 1.0, -1.0 / abs(s)]), "b1": _CYCLE3.copy(),
        "a2": np.diag([-abs(q), 1.0, -1.0 / abs(q)]), "b2": _CYCLE3.copy(),
    }
    big = RepSpec(alphabet, big_images)
    line = RepSpec(alphabet, line_images)
    rep = tensor_rep(big, line)

    w1 = Word.parse(alphabet, "a1 b1 a1 b1^-1")
    w2 = Word.parse(alphabet, "a2 b2 a2 b2^-1")
    first = [abs(s) ** 3, s ** 2] + [abs(s)] * (n - 1) + [1.0] * (n - 2)
    h_first = [abs(q) * pp ** 2] + [abs(q)] * (n - 2) + [abs(q) / pp ** 2, pp ** 2]
    manifest = {
        "params": {"n": n, "s": s, "p": pp, "q": q},
        "derived": {},
        "witnesses": {"main": str(w1), "second": str(w2)},
        "expected": {
            "first_moduli": first,          # leading 2n-1 moduli
            "h_first_moduli": h_first,      # leading n+1 moduli
            "even_coverage_bound": n + 1,
            "odd_coverage_bound": n + 1,
        },
        "gates": gates,
        "assumptions": list(STANDARD_ASSUMPTIONS) + [
            "witness images are exact diagonal tensor patterns",
        ],
    }
    return rep, manifest


def _rank4_pair(spread: float) -> tuple[RepSpec, float, float, dict]:
    """The rank-4 Schottky family rho1 on a1..a4 shared by the Prop 4.2
    builds, the top moduli lam, mu of rho1(a1), rho1(a2), and the manifest
    entries both builds record about it."""
    alphabet = Alphabet(("a1", "a2", "a3", "a4"))
    rho1 = rename_generators(schottky_sl2r(4, spread), alphabet)
    lam = rho1.top_modulus(Word.parse(alphabet, "a1"))
    mu = rho1.top_modulus(Word.parse(alphabet, "a2"))
    return rho1, lam, mu, {
        "derived": {"lam": lam, "mu": mu},
        "witnesses": {"main": "a1", "second": "a2",
                      "parity_main": "a1 a1", "parity_second": "a2 a2"},
        "pingpong": rho1.provenance["pingpong"],
    }


_SURFACE_ASSUMPTIONS = STANDARD_ASSUMPTIONS + (
    "the domain stands in for a surface group via its free retract",
)


def _build_prop42_sl4(params, seed, tol) -> tuple[RepSpec, dict]:
    p = _resolve(params, {"spread": 6.0, "theta": 1.0, "x": None, "y": None})
    spread = float(p["spread"])
    theta = float(p["theta"])
    rho1, lam, mu, shared = _rank4_pair(spread)
    alphabet = rho1.alphabet
    x = float(p["x"]) if p["x"] is not None else math.sqrt(2.0 * lam)
    y = float(p["y"]) if p["y"] is not None else math.sqrt(mu / 2.0)
    gates: list = []
    _gate(gates, "x^2 > |lam|", x ** 2, lam)
    _gate(gates, "|mu| > y^2", mu, y ** 2)

    rot = rotation_block_rep(alphabet, theta, ("a1", "a2"))
    eps = Character(alphabet, {"a1": x, "a2": y, "a3": 1.0, "a4": 1.0})
    images = {}
    for label in alphabet.names:
        v = eps.value(label)
        m = np.zeros((4, 4))
        m[:2, :2] = rho1.image(label) / v
        m[2:, 2:] = v * rot.image(label)
        images[label] = m
    rep = RepSpec(alphabet, images)
    manifest = {
        "params": {"spread": spread, "theta": theta, "x": x, "y": y},
        "expected": {
            "top_pair_modulus": x,
            "top_pair_angle": theta,
            "wedge2_pair_modulus": mu,
            "coverage_indices": [1, 2],
        },
        "gates": gates,
        "assumptions": list(_SURFACE_ASSUMPTIONS),
        **shared,
    }
    return rep, manifest


def _build_prop42_sl6(params, seed, tol) -> tuple[RepSpec, dict]:
    p = _resolve(params, {"spread": 6.0, "theta": 1.0, "s": None, "t": None})
    spread = float(p["spread"])
    theta = float(p["theta"])
    rho1, lam, mu, shared = _rank4_pair(spread)
    s = float(p["s"]) if p["s"] is not None else 2.0 * lam ** (2.0 / 3.0)
    t = float(p["t"]) if p["t"] is not None else mu ** (-1.0 / 3.0)
    gates: list = []
    _gate(gates, "s > |lam|^(2/3)", s, lam ** (2.0 / 3.0))
    _gate(gates, "t > |mu|^(-2/3)", t, mu ** (-2.0 / 3.0))
    _gate(gates, "t < 1", 1.0, t)

    jst = scaled_rotation_rep(rho1.alphabet, s, t, theta, seed)
    rep = tensor_rep(rho1, jst)
    manifest = {
        "params": {"spread": spread, "theta": theta, "s": s, "t": t},
        "expected": {
            "g_top_pair_modulus": lam * s,
            "g_moduli": [lam * s, lam * s, s / lam, s / lam,
                         lam / s ** 2, 1.0 / (lam * s ** 2)],
            "wedge3_pair_modulus": lam * s ** 3,
            "wedge2_h_pair_modulus": mu ** 2 / t,
            "coverage_indices": [1, 2, 3],
        },
        "gates": gates,
        "assumptions": list(_SURFACE_ASSUMPTIONS) + [
            "the 3x3 tail images are seeded pseudo-random stand-ins for an"
            " algebraically large subgroup",
        ],
        **shared,
    }
    return rep, manifest


_REGISTRY = {
    "thm1i_d5": _build_thm1i_d5,
    "thm1i_d6": _build_thm1i_d6,
    "thm1i_dge7": _build_thm1i_dge7,
    "thm1ii_d12": _build_thm1ii_d12,
    "thm41_pattern": _build_thm41_pattern,
    "prop42_sl4": _build_prop42_sl4,
    "prop42_sl6": _build_prop42_sl6,
}


def known_constructions() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def build_named(name: str, params: Optional[Mapping] = None, seed: int = 0,
                tol: float = 1e-6) -> BuildResult:
    if name not in _REGISTRY:
        raise InputError(
            f"unknown construction {name!r}; known: {', '.join(known_constructions())}")
    rep, manifest = _REGISTRY[name](params, seed, tol)
    manifest.update(construction=name, dim=rep.dim, seed=seed, tol=tol)
    rep.provenance.update(construction=name, seed=seed,
                          params=manifest["params"])
    return BuildResult(rep, manifest)
