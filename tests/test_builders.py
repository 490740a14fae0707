import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from specgap import obstruct
from specgap.builders import build_named, known_constructions
from specgap.certify import gap_profile
from specgap.errors import ConstructionError, InputError
from specgap.linalg import classify_exterior, spectrum
from specgap.reproduce import run_reproduction, verify_golden
from specgap.reps import RepSpec
from specgap.words import Word, in_index_two_core, Presentation

BENCH = Path(__file__).resolve().parent.parent / "bench"
ALL_NAMES = ("thm1i_d5", "thm1i_d6", "thm1i_dge7", "thm1ii_d12",
             "thm41_pattern", "prop42_sl4", "prop42_sl6")


def rep_bytes(result):
    return json.dumps(result.rep.to_json(), sort_keys=True)


class TestRegistry:
    def test_known_names(self):
        assert set(known_constructions()) == set(ALL_NAMES)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            build_named("dodecahedron")

    def test_unknown_parameter(self):
        with pytest.raises(InputError):
            build_named("thm1ii_d12", {"bogus": 1})

    @pytest.mark.parametrize("name,params", [
        ("thm1ii_d12", {"x": "2"}),
        ("thm1ii_d12", {"x": True}),
        ("thm1ii_d12", {"x": float("nan")}),
        ("thm41_pattern", {"q": float("-inf")}),
        ("thm41_pattern", {"n": 7.5}),
        ("thm1i_dge7", {"d": 10 ** 400}),
    ])
    def test_parameter_that_is_no_number_of_its_type(self, name, params):
        with pytest.raises(InputError, match="must be"):
            build_named(name, params)

    def test_parameters_take_their_defaults_types(self):
        result = build_named("thm41_pattern", {"n": np.int64(7), "s": -3,
                                               "q": -100})
        params = result.manifest["params"]
        assert params == {"n": 7, "s": -3.0, "p": 1.2, "q": -100.0}
        assert [type(params[k]) for k in ("n", "s", "q")] == [int, float, float]
        assert result.rep.dim == 21


class TestManifests:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_manifest_contents(self, name):
        result = build_named(name, None, seed=3)
        man = result.manifest
        assert man["construction"] == name
        assert man["dim"] == result.rep.dim
        assert all(g["satisfied"] for g in man["gates"])
        assert man["assumptions"]
        pres = Presentation.free(result.rep.alphabet)
        for key, text in man["witnesses"].items():
            w = Word.parse(result.rep.alphabet, text)
            if not key.startswith(("parity",)) and name.startswith("prop42"):
                continue  # spectral witnesses of the surface builds are odd
            assert in_index_two_core(w, pres)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_build_is_reproducible(self, name):
        a = build_named(name, None, seed=11)
        b = build_named(name, None, seed=11)
        assert rep_bytes(a) == rep_bytes(b)
        assert a.manifest["witnesses"] == b.manifest["witnesses"]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_build_stamp(self, name):
        result = build_named(name, None, seed=4, tol=1e-7)
        man, prov = result.manifest, result.rep.provenance
        assert (man["construction"], man["dim"], man["seed"], man["tol"]) == \
            (name, result.rep.dim, 4, 1e-7)
        assert (prov["construction"], prov["seed"]) == (name, 4)
        assert prov["params"] == man["params"]

    def test_seed_changes_random_blocks(self):
        a = build_named("thm1ii_d12", None, seed=1)
        b = build_named("thm1ii_d12", None, seed=2)
        assert not np.array_equal(a.rep.image("a4"), b.rep.image("a4"))
        # the structured letters are seed independent
        np.testing.assert_array_equal(a.rep.image("a2"), b.rep.image("a2"))


class TestGates:
    def test_d12_gate_failure_names_inequality(self):
        with pytest.raises(ConstructionError) as err:
            build_named("thm1ii_d12", {"x": 3.0})
        assert err.value.inequality == "|lam| > x^3"

    def test_d12_middle_gate(self):
        with pytest.raises(ConstructionError) as err:
            build_named("thm1ii_d12", {"mu": 1.01})
        assert "mu" in err.value.inequality or "x^3" in err.value.inequality

    def test_d12_second_witness_gate(self):
        with pytest.raises(ConstructionError) as err:
            build_named("thm1ii_d12", {"nu": 2.0})
        assert err.value.inequality == "|s| > nu^4"

    def test_pattern_requires_odd_n(self):
        with pytest.raises(ConstructionError):
            build_named("thm41_pattern", {"n": 6})

    def test_pattern_tail_gate(self):
        with pytest.raises(ConstructionError) as err:
            build_named("thm41_pattern", {"q": -1.1, "p": 1.2})
        assert err.value.inequality == "|q| > p^10"

    def test_sl4_character_gate(self):
        with pytest.raises(ConstructionError) as err:
            build_named("prop42_sl4", {"x": 1.0})
        assert err.value.inequality == "x^2 > |lam|"

    def test_sl6_scale_gates(self):
        with pytest.raises(ConstructionError):
            build_named("prop42_sl6", {"s": 1.0})
        with pytest.raises(ConstructionError):
            build_named("prop42_sl6", {"t": 1.5})

    def test_dge7_dimension_check(self):
        with pytest.raises(InputError):
            build_named("thm1i_dge7", {"d": 6})

    def test_complex_gate_side_is_a_violation(self):
        # headroom < 0 makes x complex, and comparing it raised TypeError
        with pytest.raises(ConstructionError) as err:
            build_named("thm1i_d5", {"headroom": -1.0})
        assert err.value.inequality == "x^(5/4) > ell1(rho1(w a1^2))"

    @pytest.mark.parametrize("name,params", [
        ("thm1ii_d12", {"x": 1e200}), ("thm1ii_d12", {"nu": 1e100}),
        ("thm41_pattern", {"p": 1e40}), ("thm1i_d6", {"dom_margin": 1e300}),
        ("prop42_sl4", {"spread": 1e100}), ("thm1i_d5", {"spread": 1e200}),
    ])
    def test_finite_param_that_overflows_is_an_input_error(self, name, params):
        # each raised OverflowError
        with pytest.raises(InputError, match=f"construction {name} overflows"):
            build_named(name, params)


class TestGoldenReports:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_default_build_passes_golden(self, name):
        report = run_reproduction(name, None, seed=5)
        failures = [c for c in report["golden"]["checks"] if not c["passed"]]
        assert report["passed"], failures

    def test_d12_alternate_gate_passing_parameters(self):
        report = run_reproduction("thm1ii_d12",
                                  {"lam": -30.0, "mu": 2.5, "x": 2.2,
                                   "s": -11.0, "nu": 1.5}, seed=9)
        assert report["passed"]

    def test_pattern_alternate_parameters(self):
        report = run_reproduction("thm41_pattern",
                                  {"n": 7, "s": -2.5, "p": 1.1}, seed=1)
        assert report["passed"]

    def test_d12_witness_spectra_are_exact_diagonals(self):
        result = build_named("thm1ii_d12", None, seed=0)
        w = result.witness("main")
        m = result.rep.evaluate(w)
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() == 0.0

    def test_d6_wedge3_value(self):
        result = build_named("thm1i_d6", None, seed=0)
        m = result.rep.evaluate(result.witness("main"))
        cls = classify_exterior(spectrum(m).eigenvalues, 3)
        expected = result.manifest["derived"]["expected_wedge3_top"]
        assert cls.top_modulus == pytest.approx(abs(expected), rel=1e-6)
        assert cls.top_multiplicity == 2

    def test_d5_search_found_negative_eigenvalue(self):
        result = build_named("thm1i_d5", None, seed=0)
        assert result.manifest["derived"]["lambda1"] < 0
        assert result.manifest["search"]["candidates_examined"] <= 200

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_certificate_witnesses_are_the_benchmarks(self, monkeypatch,
                                                      name):
        # the benchmark checks each certificate against these witness keys
        monkeypatch.syspath_prepend(str(BENCH))
        from workloads import ReproducePaper
        keys = ReproducePaper.WITNESS_KEYS[name]
        for seed in (0, 3, 5):
            result = build_named(name, None, seed=seed)
            cert = verify_golden(result)["certificate"]
            assert cert["witnesses"] == [result.manifest["witnesses"][k]
                                         for k in keys]

    def test_uncovered_entry_fails_the_report(self, monkeypatch):
        result = build_named("thm1ii_d12", None, seed=0)
        real = obstruct.classify_exterior

        def blurred(m, i, tol):
            cls = real(m, i, tol)
            return dataclasses.replace(cls, indeterminate=True) if i == 3 else cls

        monkeypatch.setattr(obstruct, "classify_exterior", blurred)
        report = verify_golden(result)
        failed = {c["name"]: c["detail"]
                  for c in report["checks"] if not c["passed"]}
        assert set(failed) == {
            "third exterior power of second witness: negative real top",
            "certificate covers indices 1..6",
        }
        assert failed["third exterior power of second witness: negative"
                      " real top"].startswith("index 3 is not covered")
        assert not report["passed"]


def _perturbations(check: dict, witness_keys) -> list:
    """Copies of a declared check, each with one of its own numbers moved
    off (or, for an exterior-power check that carries no number, another
    witness), so that each must fail."""
    out = []
    for k in range(len(check.get("moduli", ()))):
        moduli = list(check["moduli"])
        moduli[k] *= 1.01
        out.append({**check, "moduli": moduli})
    for key in ("modulus", "top", "top_modulus"):
        if check.get(key) is not None:
            out.append({**check, key: check[key] * 1.01})
    if "angle" in check:
        out.append({**check, "angle": check["angle"] + 0.1})
    if "multiplicity" in check:
        out.append({**check, "multiplicity": check["multiplicity"] + 1})
    others = [k for k in witness_keys if k != check["witness"]]
    if "index" in check and len(out) == 0 and others:
        out.append({**check, "witness": others[0]})
    return out


@functools.cache
def _golden_seed_7(name):
    result = build_named(name, None, seed=7)
    return result.rep, verify_golden(result)["certificate"]


class TestGoldenCertificates:
    """The certificate ``reproduce`` writes for each id at seed 7."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_verifies_against_the_representation_read_back(self, name):
        rep, cert = _golden_seed_7(name)
        read = RepSpec.from_json(json.loads(json.dumps(rep.to_json())))
        assert obstruct.verify_certificate(json.loads(json.dumps(cert)), read)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_covered_index_has_a_passing_gap_profile(self, name):
        # a covered index i says the representation is no limit of
        # P_i-Anosov ones, so it is not P_i-Anosov; on a free group uniform
        # growth of gap_i would make it so, and a passing profile would be
        # finite-scale evidence against the certificate
        rep, cert = _golden_seed_7(name)
        covered = [e["index"] for e in cert["entries"] if e["covered"]]
        assert covered
        for i in covered:
            assert gap_profile(rep, i).verdict != "pass", i


class TestDeclaredChecks:
    """The report evaluates exactly the checks a build declares in its
    manifest's ``expected``, and each check reads its own numbers."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_report_lists_the_declared_checks(self, name):
        result = build_named(name, None, seed=3)
        report = verify_golden(result)
        assert [c["name"] for c in report["checks"]] == [
            c["name"] for c in result.manifest["expected"]] + [
            f"certificate covers indices 1..{result.rep.dim // 2}"]
        assert report["passed"]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_each_perturbed_check_fails_alone(self, name):
        result = build_named(name, None, seed=3)
        declared = result.manifest["expected"]
        witness_keys = list(result.manifest["witnesses"])
        for k, check in enumerate(declared):
            variants = _perturbations(check, witness_keys)
            # only a bare exterior-power check of a one-witness build has
            # nothing of its own to move
            assert variants or (set(check) == {"name", "witness", "index", "top"}
                                and check["top"] is None
                                and witness_keys == ["main"]), check
            for variant in variants:
                manifest = {**result.manifest,
                            "expected": [*declared[:k], variant, *declared[k + 1:]]}
                report = verify_golden(dataclasses.replace(result,
                                                           manifest=manifest))
                failed = [c["name"] for c in report["checks"] if not c["passed"]]
                assert failed == [check["name"]], variant

    @pytest.mark.parametrize("expected", [
        None,
        {"first seven moduli": [1.0]},
        [{"name": "two kinds", "witness": "main", "moduli": [1.0],
          "rtol": 1e-9, "index": 1}],
        [{"name": "no kind", "witness": "main"}],
        [{"name": "unknown key", "witness": "main", "index": 1, "bound": 3}],
        [{"name": "no rtol", "witness": "main", "moduli": [1.0]}],
        [{"name": "no modulus", "witness": "main", "index": 3,
          "multiplicity": 2}],
        [{"witness": "main", "index": 1}],
    ])
    def test_malformed_declarations_refused(self, expected):
        result = build_named("thm1ii_d12", None, seed=0)
        manifest = {**result.manifest, "expected": expected}
        with pytest.raises(InputError):
            verify_golden(dataclasses.replace(result, manifest=manifest))
