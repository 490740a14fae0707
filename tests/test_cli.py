import json
from pathlib import Path

import numpy as np
import pytest

from specgap.cli import main


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
        pres_path = tmp_path / "pres.json"
        names = ["a1", "b1", "a2", "b2", "a3", "b3", "a4", "b4"]
        common = ["obstruct", "--rep", str(rep), "--witness", "a2",
                  "--indices", "1", "--out", str(tmp_path / "p")]
        # odd witness fails the parity precondition on the free presentation
        assert main(common) == 2
        # a presentation whose relator kills a2 mod 2 admits it
        pres_path.write_text(json.dumps({"generators": names,
                                         "relators": ["a2"]}))
        code = main(common + ["--presentation", str(pres_path)])
        assert code in (0, 1)


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
        # entries of 1e360 overflow: the ratios are not finite
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
            assert doc["verdict"] == "inconclusive"
            assert [s[2] for s in doc["samples"]][1:] == [None, None]
        else:
            assert doc["verdict"] == "pass"
            assert all(v is not None for s in doc["samples"] for v in s)

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
