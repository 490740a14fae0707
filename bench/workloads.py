"""The benchmark's workloads: inputs, operations and output checks.

A workload's ``prepare`` writes its inputs under a directory and returns
the operations of one pass.  Each operation is one ``specgap.cli.main``
call (or one ``verify_certificate`` call on a certificate the pass just
wrote), and its check compares the outputs with ``reference.py`` alone.
Checks raise ``CheckError``; they never compare with saved outputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

# relative tolerance of profile extrema against the reference, on
# max(1, |reference|)
PROFILE_RTOL = 1e-7
# relative tolerance of exterior top moduli against modulus-class counting
MODULUS_RTOL = 1e-8
CLOSED_FORM_RTOL = 1e-9
DEFECT_LIMIT = 1e-6
MARGIN_SAMPLE = 300


class CheckError(Exception):
    """An operation's output disagrees with the reference."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    out: Optional[Path]
    check: Callable[[object, dict], None]


def read_outputs(out: Optional[Path]) -> dict[str, bytes]:
    if out is None or not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Checks shared by every CLI operation

def _cli_outputs(rc, files: dict, expect_rc: int, subcommand: str,
                 outputs: tuple[str, ...]) -> dict:
    """Exit code, manifest digests and strict JSON; returns parsed JSON files."""
    require(rc == expect_rc, f"exit code {rc!r}, expected {expect_rc}")
    require("manifest.json" in files, "no manifest.json")
    docs = {}
    for name, data in files.items():
        if name.endswith(".json"):
            try:
                docs[name] = ref.strict_json_loads(data.decode())
            except ValueError as exc:
                raise CheckError(f"{name} is not strict JSON: {exc}") from None
    manifest = docs["manifest.json"]
    require(manifest["subcommand"] == subcommand,
            f"manifest subcommand {manifest['subcommand']!r}")
    digests = manifest["outputs"]
    require(sorted(digests) == sorted(outputs),
            f"manifest lists {sorted(digests)}, expected {sorted(outputs)}")
    for name in outputs:
        require(name in files, f"missing output {name}")
        require(digests[name] == hashlib.sha256(files[name]).hexdigest(),
                f"manifest digest of {name} does not match the file")
    return docs


def _check_certificate(cert: dict, rep: ref.Rep, witnesses: list[str],
                       indices: list[int]):
    """Coverage of every index, with each covered entry's top modulus,
    multiplicity and sign matching modulus-class counting on the witness
    eigenvalues, and earlier witnesses skipped only where they could not
    cover."""
    require(cert["rep_digest"] == rep.digest(), "certificate rep digest differs")
    require(cert["witnesses"] == witnesses, f"witnesses {cert['witnesses']}")
    require([e["index"] for e in cert["entries"]] == indices,
            f"entry indices {[e['index'] for e in cert['entries']]}")
    require(cert["covered_all"], "certificate leaves indices uncovered")
    eigs = {w: np.linalg.eigvals(rep.word(w)) for w in witnesses}
    tol = cert["tol"]
    for entry in cert["entries"]:
        i, w = entry["index"], entry["witness"]
        require(entry["covered"] and w in eigs, f"index {i} not covered")
        top, mult, positive = ref.exterior_top(eigs[w], i, tol)
        cls = entry["classification"]
        require(abs(cls["top_modulus"] - top) <= MODULUS_RTOL * top,
                f"index {i}: top modulus {cls['top_modulus']!r}, reference {top!r}")
        require(cls["top_multiplicity"] == mult,
                f"index {i}: multiplicity {cls['top_multiplicity']}, "
                f"reference C(m, k) = {mult}")
        require(not cls["positively_semiproximal"] and not cls["indeterminate"],
                f"index {i}: covering classification is not decisive")
        require(positive is not True,
                f"index {i}: a positive real top product exists")
        for earlier in witnesses[:witnesses.index(w)]:
            require(ref.exterior_top(eigs[earlier], i, tol)[2] is not False,
                    f"index {i}: skipped witness {earlier} would cover it")


def _profile_samples(doc: dict, csv_bytes: bytes, extrema: dict, radius: int):
    samples = doc["samples"]
    require([s[0] for s in samples] == list(range(1, radius + 1)),
            f"profile lengths {[s[0] for s in samples]}")
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))[1:]
    require([[int(r[0]), float(r[1]), float(r[2])] for r in rows] == samples,
            "profile.csv differs from profile.json")
    for length, lo, hi in samples:
        rlo, rhi = extrema[length]
        require(_close(lo, rlo, PROFILE_RTOL) and _close(hi, rhi, PROFILE_RTOL),
                f"length {length}: extrema ({lo!r}, {hi!r}), "
                f"reference ({rlo!r}, {rhi!r})")


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # operations that fail on every pass because of a named fault in the
    # program, with that fault; their failures leave `correct` true
    known_faults: dict[str, str] = {}

    def __init__(self, cli):
        # the module, not its ``main``: a traced run replaces ``cli.main``
        self.cli_module = cli

    def cli(self, label, argv, out: Path, check) -> Op:
        argv = [str(a) for a in argv] + ["--out", str(out)]
        return Op(label, lambda: self.cli_module.main(argv), out, check)

    def build(self, root: Path, name: str, params=(), seed: int = 0) -> Path:
        """Write rep.json and build.json of a named construction."""
        out = root / "-".join([name, *params]).replace("=", "")
        argv = ["build", "--name", name, "--seed", str(seed), "--out", str(out)]
        for p in params:
            argv += ["--param", p]
        if self.cli_module.main(argv) != 0:
            raise RuntimeError(f"input build failed: {' '.join(argv)}")
        return out

    def prepare(self, root: Path, seed: int) -> tuple[list[Op], list[Op]]:
        """Write inputs under root; return (pass operations, warm-up ops)."""
        raise NotImplementedError


class ReproducePaper(Workload):
    name = "reproduce-paper"
    # every construction id, with the witnesses its certificate must use,
    # in order; every certificate must cover indices 1..dim/2
    WITNESS_KEYS = {"thm1i_d5": ("main", "aux"), "thm1i_d6": ("main",),
                    "thm1i_dge7": ("main",), "thm1ii_d12": ("main", "second"),
                    "thm41_pattern": ("main", "second"),
                    "prop42_sl4": ("parity_main", "parity_second"),
                    "prop42_sl6": ("parity_main", "parity_second")}

    def prepare(self, root, seed):
        ops = []
        for cid, keys in self.WITNESS_KEYS.items():
            src = self.build(root / "inputs", cid, seed=seed)
            rep = ref.Rep.load(src / "rep.json")
            words = json.loads((src / "build.json").read_text())["witnesses"]
            witnesses = [words[k] for k in keys]
            ops.append(self.cli(
                f"reproduce {cid}", ["reproduce", cid, "--seed", seed],
                root / "out" / f"reproduce-{cid}",
                lambda rc, files, cid=cid, rep=rep, ws=witnesses:
                    self.check(cid, rep, ws, rc, files)))
        warm = [self.cli("warm-up", ["reproduce", "prop42_sl4"],
                         root / "warm", lambda rc, files: None)]
        return ops, warm

    def check(self, cid, rep, witnesses, rc, files):
        report = _cli_outputs(rc, files, 0, "reproduce",
                              ("report.json",))["report.json"]
        require(report["construction"] == cid, "report names another construction")
        failed = [c["name"] for c in report["golden"]["checks"] if not c["passed"]]
        require(report["passed"] and not failed, f"golden checks failed: {failed}")
        manifest = report["manifest"]
        cert = report["golden"]["certificate"]
        _check_certificate(cert, rep, witnesses, list(range(1, rep.dim // 2 + 1)))
        if cid == "thm1ii_d12":
            _check_d12_closed_forms(manifest, rep, cert)


def _check_d12_closed_forms(manifest: dict, rep: ref.Rep, cert: dict):
    """Witness moduli of thm1ii_d12 against the paper's closed forms: the
    spin factor contributes {mu^2, 1, 1, mu^-2} (resp. nu) and the line
    factor {|lam|/x, x^2, 1/(|lam| x)} (resp. {|s|, 1, 1/|s|})."""
    p = manifest["params"]
    lam, mu, x, s, nu = (abs(p["lam"]), p["mu"], p["x"], abs(p["s"]), p["nu"])
    forms = {
        manifest["witnesses"]["main"]: np.outer(
            [mu ** 2, 1, 1, mu ** -2], [lam / x, x ** 2, 1 / (lam * x)]),
        manifest["witnesses"]["second"]: np.outer(
            [nu ** 2, 1, 1, nu ** -2], [s, 1, 1 / s]),
    }
    for w, form in forms.items():
        closed = np.sort(form.ravel())[::-1]
        computed = np.sort(np.abs(np.linalg.eigvals(rep.word(w))))[::-1]
        require(np.allclose(computed, closed, rtol=CLOSED_FORM_RTOL, atol=0),
                f"witness {w}: moduli {computed.tolist()} vs closed forms "
                f"{closed.tolist()}")
    for e in cert["entries"]:
        closed = np.sort(forms[e["witness"]].ravel())[::-1]
        top = float(np.prod(closed[:e["index"]]))
        require(abs(e["classification"]["top_modulus"] - top)
                <= CLOSED_FORM_RTOL * top,
                f"index {e['index']}: top modulus differs from the closed form")


class CertifyWide(Workload):
    name = "certify-wide"
    TARGETS = (("thm41_pattern", ("n=13",), ("main", "second")),
               ("thm41_pattern", ("n=15",), ("main", "second")),
               ("thm1i_dge7", ("d=10",), ("main",)))

    def prepare(self, root, seed):
        ops, warm = [], []
        for name, params, keys in self.TARGETS:
            src = self.build(root / "inputs", name, params, seed=seed)
            rep_path = src / "rep.json"
            rep = ref.Rep.load(rep_path)
            witnesses = [json.loads((src / "build.json").read_text())
                         ["witnesses"][k] for k in keys]
            argv = ["obstruct", "--rep", rep_path]
            for w in witnesses:
                argv += ["--witness", w]
            tag = "-".join([name, *params]).replace("=", "")
            out = root / "out" / f"obstruct-{tag}"
            ops.append(self.cli(
                f"obstruct {tag}", argv, out,
                lambda rc, files, rep=rep, ws=witnesses:
                    self.check_obstruct(rep, ws, rc, files)))
            ops.append(Op(f"verify_certificate {tag}",
                          _verify_op(out / "certificate.json", rep_path), None,
                          _check_verified))
            if not warm:
                warm_out = root / "warm"
                warm = [self.cli("warm-up", argv + ["--indices", "1,2"], warm_out,
                                 lambda rc, files: None),
                        Op("warm-up", _verify_op(warm_out / "certificate.json",
                                                 rep_path),
                           None, lambda result, files: None)]
        # a fixed build: the share of proximal samples depends on the
        # representation, and peak memory grows with its square
        d12 = self.build(root / "inputs", "thm1ii_d12", seed=0) / "rep.json"
        rep = ref.Rep.load(d12)
        ops.append(self.cli(
            "limitset thm1ii_d12",
            ["limitset", "--rep", d12, "--samples", 3000, "--seed", seed],
            root / "out" / "limitset",
            lambda rc, files: self.check_limitset(rep, rc, files)))
        return ops, warm

    @staticmethod
    def check_obstruct(rep, witnesses, rc, files):
        cert = _cli_outputs(rc, files, 0, "obstruct",
                            ("certificate.json",))["certificate.json"]
        _check_certificate(cert, rep, witnesses, list(range(1, rep.dim // 2 + 1)))

    @staticmethod
    def check_limitset(rep, rc, files):
        doc = _cli_outputs(rc, files, 0, "limitset",
                           ("limitset.json", "limitset.csv"))["limitset.json"]
        rows = list(csv.reader(io.StringIO(files["limitset.csv"].decode())))[1:]
        require(doc["attempted"] == 3000 and doc["count"] == len(rows),
                f"attempted {doc['attempted']}, count {doc['count']}, "
                f"rows {len(rows)}")
        require(doc["factor_dims"] == [4, 3], f"factor dims {doc['factor_dims']}")
        defects = []
        for row in rows:
            m = rep.word(row[0])
            v = np.array([float(x) for x in row[1:-1]])
            require(abs(np.linalg.norm(v) - 1.0) <= 1e-12, f"{row[0]}: not unit")
            mv = m @ v
            lam = float(v @ mv)
            require(np.linalg.norm(mv - lam * v) <= 1e-9 * np.linalg.norm(m),
                    f"{row[0]}: vector is not an eigenvector")
            moduli = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
            require(abs(abs(lam) - moduli[0]) <= 1e-6 * moduli[0]
                    and moduli[0] > moduli[1],
                    f"{row[0]}: vector is not the attracting line")
            defect = ref.rank_defect(v, 4, 3)
            require(defect < DEFECT_LIMIT, f"{row[0]}: rank defect {defect!r}")
            require(abs(defect - float(row[-1])) <= 1e-12,
                    f"{row[0]}: recorded defect {row[-1]}, reference {defect!r}")
            defects.append(float(row[-1]))
        require(doc["max_defect"] == max(defects), "max_defect is not the maximum")


def _verify_op(cert_path: Path, rep_path: Path):
    def run():
        from specgap.obstruct import verify_certificate
        from specgap.reps import RepSpec
        with open(cert_path) as fh:
            cert = json.load(fh)
        return verify_certificate(cert, RepSpec.load(rep_path))
    return run


def _check_verified(result, files):
    require(result is True, f"verify_certificate returned {result!r}")


class DiagnoseBalls(Workload):
    name = "diagnose-balls"
    SATURATION = "diagnose --qi --radius 8 schottky-4"
    known_faults = {SATURATION:
                    "double-precision SVDs of raw products saturate past"
                    " log(sigma1/sigma2) ~ 36: qi_profile returns inf and"
                    " profile.json holds non-standard Infinity"}

    def prepare(self, root, seed):
        from specgap.reps import schottky_sl2r
        inputs = root / "inputs"
        d12 = self.build(inputs, "thm1ii_d12", seed=seed) / "rep.json"
        pairs = {}
        for spread in (2.5, 4.0):
            path = inputs / f"schottky-{spread:g}" / "rep.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(schottky_sl2r(2, spread).to_json()))
            pairs[spread] = path
        out = root / "out"
        ops = [
            self.cli("diagnose --gap 3 --radius 4 thm1ii_d12",
                     ["diagnose", "--rep", d12, "--gap", 3, "--radius", 4],
                     out / "gap-d12",
                     lambda rc, files: self.check_profile(
                         d12, 8, 4, ref.gap_statistic(3), 1, "fail", rc, files)),
            self.cli("diagnose --qi --radius 10 schottky-2.5",
                     ["diagnose", "--rep", pairs[2.5], "--qi", "--radius", 10],
                     out / "qi-2.5",
                     lambda rc, files: self.check_profile(
                         pairs[2.5], 2, 10, ref.sl2_log_ratio, 0, "pass", rc,
                         files)),
            self.cli("build thm1i_d6 dom_radius=8",
                     ["build", "--name", "thm1i_d6", "--param", "dom_radius=8",
                      "--seed", seed],
                     out / "build-d6",
                     lambda rc, files: self.check_d6(seed, rc, files)),
            self.cli(self.SATURATION,
                     ["diagnose", "--rep", pairs[4.0], "--qi", "--radius", 8],
                     out / "qi-4",
                     lambda rc, files: self.check_profile(
                         pairs[4.0], 2, 8, ref.sl2_log_ratio, 0, "pass", rc,
                         files)),
        ]
        warm = [self.cli("warm-up", ["diagnose", "--rep", d12, "--gap", 3,
                                     "--radius", 1], root / "warm",
                         lambda rc, files: None),
                self.cli("warm-up", ["build", "--name", "thm1i_d6", "--param",
                                     "dom_radius=2"], root / "warm",
                         lambda rc, files: None)]
        return ops, warm

    @staticmethod
    def check_profile(rep_path, rank, radius, stat, expect_rc, verdict, rc,
                      files):
        doc = _cli_outputs(rc, files, expect_rc, "diagnose",
                           ("profile.json", "profile.csv"))["profile.json"]
        require(doc["verdict"] == verdict, f"verdict {doc['verdict']!r}")
        require(doc["radius"] == radius, f"radius {doc['radius']}")
        words = ref.ball_count(rank, radius) - 1
        require(doc["words_evaluated"] == words,
                f"words_evaluated {doc['words_evaluated']}, closed form {words}")
        extrema, count = ref.ball_extrema(ref.Rep.load(rep_path), radius, stat)
        require(count == words, f"reference swept {count} words")
        _profile_samples(doc, files["profile.csv"], extrema, radius)

    @staticmethod
    def check_d6(seed, rc, files):
        docs = _cli_outputs(rc, files, 0, "build", ("rep.json", "build.json"))
        build, rep = docs["build.json"], ref.Rep(docs["rep.json"])
        dom = build["domination"]
        words = ref.ball_count(2, 8) - 1
        require(dom["radius"] == 8 and dom["words_checked"] == words,
                f"domination swept {dom['words_checked']} words, closed form"
                f" {words}")
        require(dom["passed"], "domination reported as failed")
        # the sweep compares the 2x2 block j against the spin block rho0
        names = rep.names

        def margin(letters):
            m = rep.evaluate(letters)
            upper = np.max(np.abs(np.linalg.eigvals(m[4:, 4:])))
            lower = np.max(np.abs(np.linalg.eigvals(m[:4, :4])))
            return math.log(upper) - dom["exponent"] * math.log(lower)

        sub = [names.index("a1"), names.index("b1")]
        rng = np.random.default_rng(seed)
        sample = [[(sub[i], s) for i, s in w]
                  for w in ref.random_reduced_words(2, MARGIN_SAMPLE, 8, rng)]
        margins = [margin(ref.cyclic_reduce(w)) for w in sample
                   if ref.cyclic_reduce(w)]
        require(dom["margin"] <= min(margins) + 1e-9 * max(1.0, abs(min(margins))),
                f"margin {dom['margin']!r} above the sampled minimum "
                f"{min(margins)!r}")
        at_argmin = margin(ref.parse_word(names, dom["argmin"]))
        require(_close(dom["margin"], at_argmin, 1e-6),
                f"margin {dom['margin']!r}, recomputed at the argmin "
                f"{at_argmin!r}")
        top = max(np.linalg.eigvals(rep.word(build["witnesses"]["main"])),
                  key=abs)
        lam = build["derived"]["lambda1"]
        require(lam < 0 and abs(top.imag) <= 1e-9 * abs(top)
                and abs(top.real - lam) <= 1e-9 * abs(lam),
                f"witness top eigenvalue {top!r}, recorded lambda1 {lam!r}")


WORKLOADS = {w.name: w for w in (ReproducePaper, CertifyWide, DiagnoseBalls)}
