import json
import math
from pathlib import Path

import numpy as np
import pytest

from specgap.cli import _build_parser, _canonical_json, main
from specgap.obstruct import verify_certificate
from specgap.reps import RepSpec, tensor_rep
from specgap.words import Alphabet


def read_json(path):
    return json.loads(Path(path).read_text())


class TestBuild:
    def test_writes_rep_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = main(["build", "--name", "thm1ii_d12", "--param", "x=2",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        rep = read_json(out / "rep.json")
        assert rep["dim"] == 12
        manifest = read_json(out / "manifest.json")
        assert set(manifest["outputs"]) == {"rep.json", "build.json"}
        assert manifest["construction"] == "thm1ii_d12"

    def test_gate_violation_exits_2(self, tmp_path):
        code = main(["build", "--name", "thm1ii_d12", "--param", "x=3",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_name_exits_2(self, tmp_path):
        assert main(["build", "--name", "zzz", "--out", str(tmp_path)]) == 2

    def test_empty_domination_sweep_exits_2(self, tmp_path):
        assert main(["build", "--name", "thm1i_d6", "--param", "dom_radius=0",
                     "--out", str(tmp_path)]) == 2

    def test_bad_param_syntax_exits_2(self, tmp_path):
        assert main(["build", "--name", "thm1ii_d12", "--param", "x2",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name,param", [
        ("thm1i_d5", "max_power=3"),
        ("thm1i_d6", "max_candidates=1"),
        ("thm1i_dge7", "max_power=3"),
    ])
    def test_search_budget_is_not_a_param(self, tmp_path, name, param):
        # the sign search runs on its fixed budget
        assert main(["build", "--name", name, "--param", param,
                     "--out", str(tmp_path)]) == 2


    @pytest.mark.parametrize("argv", [
        ["build", "--name", "thm1ii_d12", "--param", "lam=abc"],
        ["reproduce", "prop42_sl4", "--param", "x=none"],
        ["build", "--name", "thm1i_dge7", "--param", "d=7.5"],
        ["build", "--name", "thm1i_d6", "--param", "dom_radius=2.5"],
        ["build", "--name", "thm1ii_d12", "--param", "x=inf"],
    ])
    def test_param_that_is_no_number_of_its_type_exits_2(self, tmp_path,
                                                          capsys, argv):
        # a non-number once escaped as a ValueError (exit 1), and d=7.5
        # silently built d=7
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parameter") and "Traceback" not in err

    def test_integral_float_param_builds_the_int(self, tmp_path):
        outs = [tmp_path / "int", tmp_path / "float"]
        for out, d in zip(outs, ("d=8", "d=8.0")):
            assert main(["build", "--name", "thm1i_dge7", "--param", d,
                         "--out", str(out)]) == 0
        for name in ("rep.json", "build.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert read_json(outs[1] / "build.json")["params"]["d"] == 8
        assert read_json(outs[1] / "manifest.json")["params"] == {"d": 8.0}

    def test_tensor_rep_file_keeps_its_factors(self, tmp_path):
        main(["build", "--name", "thm1ii_d12", "--seed", "3",
              "--out", str(tmp_path)])
        doc = read_json(tmp_path / "rep.json")
        assert [f["dim"] for f in doc["factors"]] == [4, 3]
        rep = RepSpec.load(tmp_path / "rep.json")
        assert [f.dim for f in rep.factors] == [4, 3]
        assert (_canonical_json(rep.to_json())
                == (tmp_path / "rep.json").read_text())


class TestReplay:
    def test_rebuilding_reproduces_digests(self, tmp_path):
        args = ["build", "--name", "thm41_pattern", "--param", "n=5",
                "--param", "s=-3", "--seed", "5"]
        code1 = main(args + ["--out", str(tmp_path / "one")])
        code2 = main(args + ["--out", str(tmp_path / "two")])
        assert code1 == code2 == 0
        m1 = read_json(tmp_path / "one" / "manifest.json")
        m2 = read_json(tmp_path / "two" / "manifest.json")
        assert m1["outputs"] == m2["outputs"]

    def test_replay_from_recorded_command(self, tmp_path):
        out1 = tmp_path / "one"
        main(["build", "--name", "prop42_sl6", "--seed", "3",
              "--out", str(out1)])
        recorded = read_json(out1 / "manifest.json")["command"]
        replayed = []
        skip = False
        for k, tok in enumerate(recorded):
            if skip:
                skip = False
                continue
            if tok == "--out":
                skip = True
                continue
            replayed.append(tok)
        out2 = tmp_path / "two"
        main(replayed + ["--out", str(out2)])
        m1 = read_json(out1 / "manifest.json")
        m2 = read_json(out2 / "manifest.json")
        assert m1["outputs"] == m2["outputs"]


class TestObstruct:
    def _build(self, tmp_path):
        out = tmp_path / "build"
        main(["build", "--name", "thm1ii_d12", "--out", str(out)])
        return out / "rep.json"

    def test_two_witness_sweep_covers(self, tmp_path):
        rep = self._build(tmp_path)
        out = tmp_path / "cert"
        code = main(["obstruct", "--rep", str(rep),
                     "--witness", "a1 b1 a1^-1 b1^-1 a2^2",
                     "--witness", "b2 a3 b2^-1 a3^-1 b3^2",
                     "--out", str(out)])
        assert code == 0
        cert = read_json(out / "certificate.json")
        assert cert["covered_all"]
        assert [e["index"] for e in cert["entries"]] == [1, 2, 3, 4, 5, 6]

    def test_uncovered_index_exits_1(self, tmp_path):
        # the second witness alone has positive top eigenvalue at index 2
        rep = self._build(tmp_path)
        out = tmp_path / "cert"
        code = main(["obstruct", "--rep", str(rep),
                     "--witness", "b2 a3 b2^-1 a3^-1 b3^2",
                     "--indices", "2,3", "--out", str(out)])
        assert code == 1
        cert = read_json(out / "certificate.json")
        assert not cert["covered_all"]

    def test_odd_witness_exits_2(self, tmp_path):
        rep = self._build(tmp_path)
        code = main(["obstruct", "--rep", str(rep), "--witness", "a1",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_presentation_file_changes_the_parity_core(self, tmp_path):
        rep = self._build(tmp_path)
        # a2 made a product of squares, so that a relator the images satisfy
        # kills it mod 2
        spec = RepSpec.load(rep)
        images = {l: spec.image(l) for l in spec.alphabet.names}
        images["a2"] = (images["b2"] @ images["b2"]
                        @ images["b3"] @ images["b3"])
        rep.write_text(json.dumps(RepSpec(spec.alphabet, images).to_json()))
        pres_path = tmp_path / "pres.json"
        names = ["a1", "b1", "a2", "b2", "a3", "b3", "a4", "b4"]
        common = ["obstruct", "--rep", str(rep), "--witness", "a2",
                  "--indices", "1", "--out", str(tmp_path / "p")]
        # odd witness fails the parity precondition on the free presentation
        assert main(common) == 2
        # a presentation whose relator kills a2 mod 2 admits it
        pres_path.write_text(json.dumps({"generators": names,
                                         "relators": ["a2 b3^-2 b2^-2"]}))
        code = main(common + ["--presentation", str(pres_path)])
        assert code in (0, 1)

    PRESENTATION = {"generators": ["a1", "a2", "a3", "a4"],
                    "relators": ["a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1"]}

    def test_unsatisfied_relator_exits_2(self, tmp_path, capsys):
        # the Schottky images of prop42_sl4 do not satisfy the surface
        # relator; no certificate may be written about that group
        out = tmp_path / "build"
        main(["build", "--name", "prop42_sl4", "--seed", "3",
              "--out", str(out)])
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps(self.PRESENTATION))
        capsys.readouterr()
        assert main(["obstruct", "--rep", str(out / "rep.json"),
                     "--presentation", str(pres), "--witness", "a1 a1",
                     "--witness", "a2 a2", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "relator a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1" in err
        assert not (tmp_path / "x" / "certificate.json").exists()

    def test_commuting_images_satisfy_the_relator(self, tmp_path):
        # scaled rotations on the same 2x2 blocks commute, so the surface
        # relator holds up to rounding
        def image(scale, t1, t2):
            m = np.zeros((4, 4))
            for at, s, t in ((0, scale, t1), (2, 1 / scale, t2)):
                m[at:at + 2, at:at + 2] = s * np.array(
                    [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            return m
        names = self.PRESENTATION["generators"]
        rep, pres = tmp_path / "rep.json", tmp_path / "pres.json"
        rep.write_text(json.dumps(RepSpec(Alphabet(tuple(names)), {
            l: image(2.0 + k, 1.0 + 0.3 * k, 0.5 + 0.2 * k)
            for k, l in enumerate(names)}).to_json()))
        pres.write_text(json.dumps(self.PRESENTATION))
        assert main(["obstruct", "--rep", str(rep), "--presentation",
                     str(pres), "--witness", "a1 a1", "--indices", "1",
                     "--out", str(tmp_path / "x")]) == 0
        cert = read_json(tmp_path / "x" / "certificate.json")
        assert cert["covered_all"]
        # the certificate records the relator, and its read-back rechecks it
        [(relator, dev)] = cert["relators"]["deviations"]
        assert relator == self.PRESENTATION["relators"][0]
        assert dev <= cert["relators"]["tol"] == 1e-8
        assert verify_certificate(cert, RepSpec.load(rep))


    def test_indeterminate_index_exits_3(self, tmp_path, capsys):
        # a's top cluster at index 3 holds six products of modulus 12
        def rotation(t):
            return np.array([[math.cos(t), -math.sin(t)],
                             [math.sin(t), math.cos(t)]])
        a, b, c = np.zeros((6, 6)), np.eye(6), np.zeros((6, 6))
        a[0, 0], a[5, 5] = -3.0, -1 / 48
        c[0, 0], c[5, 5] = math.sqrt(3.0), 1 / math.sqrt(48.0)
        for at, t in ((1, 1.0), (3, 2.2)):
            a[at:at + 2, at:at + 2] = 2 * rotation(t)
            c[at:at + 2, at:at + 2] = math.sqrt(2.0) * rotation(t / 2)
        # b^2 is -1 on coordinates 0 and 5, so a = b^2 c^2: the relator
        # a c^-2 b^-2 holds and kills a mod 2
        b[np.ix_([0, 5], [0, 5])] = rotation(math.pi / 2)
        rep, pres = tmp_path / "rep.json", tmp_path / "pres.json"
        rep.write_text(json.dumps(RepSpec(
            Alphabet(("a", "b", "c")), {"a": a, "b": b, "c": c}).to_json()))
        pres.write_text(json.dumps({"generators": ["a", "b", "c"],
                                    "relators": ["a c^-2 b^-2"]}))
        capsys.readouterr()
        assert main(["obstruct", "--rep", str(rep), "--presentation",
                     str(pres), "--witness", "a",
                     "--out", str(tmp_path / "x")]) == 3
        assert "uncovered: [3]" in capsys.readouterr().out


class TestDiagnose:
    def test_gap_profile_outputs(self, tmp_path):
        build = tmp_path / "b"
        main(["build", "--name", "prop42_sl6", "--out", str(build)])
        out = tmp_path / "prof"
        code = main(["diagnose", "--rep", str(build / "rep.json"),
                     "--gap", "1", "--radius", "3",
                     "--restrict", "a1,a2", "--out", str(out)])
        assert code in (0, 1)
        doc = read_json(out / "profile.json")
        assert doc["restricted_to"] == ["a1", "a2"]
        assert (out / "profile.csv").read_text().startswith("length,")

    def test_qi_profile(self, tmp_path):
        build = tmp_path / "b"
        main(["build", "--name", "thm1i_d6", "--out", str(build)])
        out = tmp_path / "prof"
        code = main(["diagnose", "--rep", str(build / "rep.json"), "--qi",
                     "--radius", "3", "--restrict", "a1,b1",
                     "--out", str(out)])
        assert code == 0
        assert read_json(out / "profile.json")["verdict"] == "pass"


    @pytest.mark.parametrize("build,args,code", [
        # identity pair: a flat lower envelope, so J is undefined
        (None, ["--qi", "--radius", "3"], 1),
        # log(sigma_1/sigma_6) reaches 92 at length 4; graded products keep
        # every ratio finite and the profile decidable
        ("thm1i_d6", ["--qi", "--radius", "4", "--restrict", "a1,b1"], 0),
        # entries of 1e360 overflow at length 3: the ratios are not finite
        ("overflow", ["--qi", "--radius", "3"], 3),
    ])
    def test_profile_json_is_strict(self, tmp_path, build, args, code):
        rep = tmp_path / "rep.json"
        if build is None:
            rep.write_text(json.dumps({"alphabet": ["a", "b"], "images": {
                "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0, 0.0], [0.0, 1.0]]}}))
        elif build == "overflow":
            big = np.diag([1e120, 1.0, 1e-120])
            rep.write_text(json.dumps({"alphabet": ["a", "b"], "images": {
                "a": big.tolist(), "b": big[::-1, ::-1].tolist()}}))
        else:
            main(["build", "--name", build, "--out", str(tmp_path / "b")])
            rep = tmp_path / "b" / "rep.json"
        out = tmp_path / "prof"
        assert main(["diagnose", "--rep", str(rep), *args,
                     "--out", str(out)]) == code

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((out / "profile.json").read_text(),
                         parse_constant=reject)
        if build is None:
            assert doc["J"] is None and doc["verdict"] == "fail"
        elif build == "overflow":
            # length 2 reaches 1e240 / 1e-240, still inside the double range
            assert doc["verdict"] == "inconclusive"
            assert doc["samples"][1][2] == pytest.approx(480 * np.log(10),
                                                         rel=1e-12)
            assert doc["samples"][2][2] is None
        else:
            assert doc["verdict"] == "pass"
            assert all(v is not None for s in doc["samples"] for v in s)

    @pytest.mark.parametrize("radius", ["0", "1", "2"])
    def test_fewer_than_two_fitted_lengths_exit_3(self, tmp_path, radius):
        # no sample, then lengths 1 and 2 only: no slope can be fitted
        main(["build", "--name", "thm1ii_d12", "--out", str(tmp_path / "b")])
        out = tmp_path / "prof"
        assert main(["diagnose", "--rep", str(tmp_path / "b" / "rep.json"),
                     "--qi", "--radius", radius, "--out", str(out)]) == 3
        doc = read_json(out / "profile.json")
        assert doc["verdict"] == "inconclusive" and doc["J"] is None

    def test_rounding_noise_slope_writes_null_j(self, tmp_path):
        # the lower envelope of gap 1 is flat: sigma_1 = sigma_2 on every
        # word, up to rounding
        main(["build", "--name", "prop42_sl4", "--seed", "3",
              "--out", str(tmp_path / "b")])
        out = tmp_path / "prof"
        assert main(["diagnose", "--rep", str(tmp_path / "b" / "rep.json"),
                     "--gap", "1", "--radius", "4", "--out", str(out)]) == 1
        doc = read_json(out / "profile.json")
        assert doc["J"] is None and doc["verdict"] == "fail"


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["diagnose", "--rep", "rep.json", "--qi", "--seed", "1"],
        ["diagnose", "--rep", "rep.json", "--qi", "--tol", "1e-6"],
        ["obstruct", "--rep", "rep.json", "--witness", "a1", "--seed", "1"],
    ])
    def test_options_a_subcommand_does_not_read_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["build", "--name", "prop42_sl4"],
        ["obstruct", "--rep", "rep.json", "--witness", "a1"],
        ["reproduce", "prop42_sl4"],
        ["limitset", "--rep", "rep.json"],
    ])
    def test_tolerance_that_is_not_finite_and_positive_is_rejected(
            self, tmp_path, argv, tol):
        # nan reached the strict-JSON writer as a traceback, 0 split moduli
        # on last-bit noise, and -1 sampled no proximal word (exit 3)
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={tol}", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_one_parser_keeps_no_state_between_calls(self, tmp_path):
        # the parser is built once per process; each call parses afresh
        assert _build_parser() is _build_parser()
        runs = [
            (["build", "--name", "thm1ii_d12", "--param", "x=2",
              "--param", "mu=2"], {"x": 2, "mu": 2}),
            (["diagnose", "--rep", str(tmp_path / "0" / "rep.json"), "--qi",
              "--radius", "3"], None),
            (["build", "--name", "thm1ii_d12", "--param", "x=2"], {"x": 2}),
            (["build", "--name", "thm1ii_d12"], {}),
        ]
        for k, (argv, params) in enumerate(runs):
            argv = [*argv, "--out", str(tmp_path / str(k))]
            assert main(argv) in (0, 1)
            manifest = read_json(tmp_path / str(k) / "manifest.json")
            assert manifest["command"] == argv
            assert manifest.get("params") == params


class TestReproduce:
    @pytest.mark.parametrize("name", ["thm1ii_d12", "prop42_sl4"])
    def test_reproduce_passes(self, tmp_path, name):
        code = main(["reproduce", name, "--seed", "7", "--out",
                     str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "report.json")
        assert report["passed"]

    def test_unknown_id_exits_2(self, tmp_path):
        assert main(["reproduce", "thm99", "--out", str(tmp_path)]) == 2


class TestLimitset:
    def test_limitset_outputs(self, tmp_path):
        build = tmp_path / "b"
        main(["build", "--name", "prop42_sl6", "--seed", "2",
              "--out", str(build)])
        out = tmp_path / "ls"
        code = main(["limitset", "--rep", str(build / "rep.json"),
                     "--samples", "120", "--seed", "4", "--out", str(out)])
        assert code == 0
        doc = read_json(out / "limitset.json")
        assert doc["max_defect"] < 1e-6
        csv = (out / "limitset.csv").read_text().splitlines()
        assert csv[0].startswith("word,")
        assert len(csv) == doc["count"] + 1

    def test_non_tensor_rep_exits_2(self, tmp_path):
        build = tmp_path / "b"
        main(["build", "--name", "thm1i_d5", "--out", str(build)])
        assert main(["limitset", "--rep", str(build / "rep.json"),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_non_positive_sample_count_exits_2(self, tmp_path, capsys, count):
        build = tmp_path / "b"
        main(["build", "--name", "prop42_sl6", "--out", str(build)])
        capsys.readouterr()
        assert main(["limitset", "--rep", str(build / "rep.json"),
                     "--samples", count, "--out", str(tmp_path / "x")]) == 2
        assert "sample count must be >= 1" in capsys.readouterr().err

    def test_no_proximal_sample_exits_3(self, tmp_path, capsys):
        # every word maps to a rotation tensor the identity
        ab = Alphabet(("a", "b"))
        t = 1.0
        rot = RepSpec(ab, {"a": [[math.cos(t), -math.sin(t)],
                                 [math.sin(t), math.cos(t)]],
                           "b": np.eye(2)})
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(tensor_rep(
            rot, RepSpec(ab, {"a": np.eye(3), "b": np.eye(3)})).to_json()))
        capsys.readouterr()
        assert main(["limitset", "--rep", str(rep),
                     "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: only 0 proximal samples")

    def test_replay_is_bit_identical(self, tmp_path):
        build = tmp_path / "b"
        main(["build", "--name", "thm1ii_d12", "--seed", "3",
              "--out", str(build)])
        args = ["limitset", "--rep", str(build / "rep.json"),
                "--samples", "400", "--seed", "3"]
        runs = [tmp_path / "one", tmp_path / "two"]
        for out in runs:
            assert main(args + ["--out", str(out)]) == 0
        for name in ("limitset.csv", "limitset.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        m1, m2 = (read_json(out / "manifest.json") for out in runs)
        assert m1["outputs"] == m2["outputs"]
        assert set(m1["outputs"]) == {"limitset.csv", "limitset.json"}


REP = {"alphabet": ["a1"], "images": {"a1": [[2.0, 0.0], [0.0, 0.5]]}}

A1 = Alphabet(("a1",))
TENSOR = json.dumps(tensor_rep(
    RepSpec(A1, {"a1": np.diag([2.0, 1.0, 1.0, 0.5])}),
    RepSpec(A1, {"a1": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),
).to_json())


def _tensor_file(edit) -> str:
    doc = json.loads(TENSOR)
    edit(doc)
    return json.dumps(doc)


def _one_ulp_off(doc):
    row = doc["images"]["a1"][1]
    assert row[0] == 2.0
    row[0] = float(np.nextafter(2.0, 3.0))


BAD_REP_FILES = {
    "string entry": json.dumps({"alphabet": ["a1"],
                                "images": {"a1": [["x", 0], [0, 1]]}}),
    "ragged row": json.dumps({"alphabet": ["a1"],
                              "images": {"a1": [[1, 0], [0]]}}),
    "no alphabet": json.dumps({"images": REP["images"]}),
    "malformed JSON": json.dumps(REP)[:-1],
    "missing file": None,
    # one entry one ulp away from the Kronecker product of the factors
    "inexact factors": _tensor_file(_one_ulp_off),
    "wrong factor dims": _tensor_file(
        lambda d: d["factors"].__setitem__(1, d["factors"][0])),
    "factors not a list": _tensor_file(
        lambda d: d.__setitem__("factors", d["factors"][0])),
    # each once a traceback (exit 1) or read as the labels "a" and "b"
    "provenance a number": json.dumps(dict(REP, provenance=5)),
    "provenance a string": json.dumps(dict(REP, provenance="ab")),
    "alphabet a string": json.dumps({"alphabet": "ab", "images": {
        "a": REP["images"]["a1"], "b": REP["images"]["a1"]}}),
    "images a string": json.dumps({"alphabet": ["a1"], "images": "ab"}),
}

BAD_PRESENTATION_FILES = {
    "no generators": json.dumps({"relators": []}),
    "generators a string": json.dumps({"generators": "a1", "relators": []}),
    "relators a string": json.dumps({"generators": ["a1"], "relators": "a1"}),
    "malformed JSON": '{"generators": ["a1"]',
    "missing file": None,
}


class TestInputErrors:
    """Malformed input files and options are input errors: exit 2 and an
    error line, never a traceback."""

    @staticmethod
    def _exits_2(capsys, argv):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @staticmethod
    def _write(path, text):
        if text is not None:
            path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("case", sorted(BAD_REP_FILES))
    def test_bad_rep_file(self, tmp_path, capsys, case):
        rep = self._write(tmp_path / "rep.json", BAD_REP_FILES[case])
        self._exits_2(capsys, ["diagnose", "--rep", rep, "--qi",
                               "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("case", sorted(BAD_PRESENTATION_FILES))
    def test_bad_presentation_file(self, tmp_path, capsys, case):
        rep = self._write(tmp_path / "rep.json", json.dumps(REP))
        pres = self._write(tmp_path / "pres.json", BAD_PRESENTATION_FILES[case])
        self._exits_2(capsys, ["obstruct", "--rep", rep, "--presentation", pres,
                               "--witness", "a1^2", "--out", str(tmp_path / "x")])

    def test_empty_restriction(self, tmp_path, capsys):
        # an empty --restrict once swept the whole alphabet
        rep = self._write(tmp_path / "rep.json", json.dumps(REP))
        self._exits_2(capsys, ["diagnose", "--rep", rep, "--qi", "--restrict",
                               "", "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x" / "profile.json").exists()

    def test_non_integer_index(self, tmp_path, capsys):
        rep = self._write(tmp_path / "rep.json", json.dumps(REP))
        self._exits_2(capsys, ["obstruct", "--rep", rep, "--witness", "a1^2",
                               "--indices", "1,x", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("indices", [",", "1,1", "1,,1"])
    def test_empty_or_repeated_indices(self, tmp_path, capsys, indices):
        # "," once certified no index with covered_all true, and "1,1"
        # recorded index 1 twice
        rep = self._write(tmp_path / "rep.json", json.dumps(REP))
        self._exits_2(capsys, ["obstruct", "--rep", rep, "--witness", "a1^2",
                               "--indices", indices,
                               "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x" / "certificate.json").exists()
