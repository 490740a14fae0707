"""Command-line surface.

Subcommands: build, obstruct, diagnose, reproduce, limitset.  Every run
writes a manifest with the exact command line, the seed, tolerance and
``--param`` values it read, and sha256 digests of the other outputs, so
replaying the recorded command in a fresh directory reproduces
bit-identical files.

Exit codes: 0 success/pass, 1 verified failure (e.g. an uncovered index),
2 input or gate error, 3 numerical indeterminacy or exhausted search.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .builders import build_named, known_constructions
from .certify import gap_profile, qi_profile
from .errors import (ConstructionError, InputError, NumericalError,
                     SamplingError, SearchError)
from .obstruct import certify_not_limit, sample_limit_set
from .reproduce import run_reproduction
from .reps import RepSpec
from .words import Presentation, Word


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


class _Run:
    """Collects output files and writes the manifest last."""

    def __init__(self, out_dir: str, argv, subcommand: str):
        self.dir = Path(out_dir)
        with self._writing():
            self.dir.mkdir(parents=True, exist_ok=True)
        self.argv = list(argv)
        self.subcommand = subcommand
        self.digests: dict[str, str] = {}
        self.extra: dict = {}

    @contextlib.contextmanager
    def _writing(self):
        """An output directory that cannot be made or written is an input
        error (exit 2), not a traceback."""
        try:
            yield
        except OSError as exc:
            raise InputError(f"cannot write to --out {self.dir}: {exc}") from None

    def write(self, name: str, text: str):
        """Write ``text`` as UTF-8 and keep the sha256 of the bytes written."""
        data = text.encode()
        with self._writing():
            (self.dir / name).write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()

    def finish(self) -> Path:
        manifest = {
            "schema_version": 1,
            "tool_version": __version__,
            "subcommand": self.subcommand,
            "command": self.argv,
            "outputs": self.digests,
        }
        manifest.update(self.extra)
        path = self.dir / "manifest.json"
        with self._writing():
            path.write_text(_canonical_json(manifest))
        return path


def _tolerance(text: str) -> float:
    """A ``--tol`` value: finite and positive, else argparse exits 2."""
    if not (math.isfinite(tol := float(text)) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text}")
    return tol


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's generators take, else
    argparse exits 2."""
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
    return seed


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, val = pair.partition("=")
        if not sep:
            raise InputError(f"--param expects key=value, got {pair!r}")
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


@functools.cache  # built once per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="build matrix representations and verify their spectral"
                    " obstructions and gap diagnostics")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True, tol=True):
        p.add_argument("--out", default=".", help="output directory")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=1e-6,
                           help="relative classification tolerance")

    b = sub.add_parser("build", help="run a named construction")
    common(b)
    b.add_argument("--name", required=True,
                   help=f"one of: {', '.join(known_constructions())}")
    b.add_argument("--param", action="append", metavar="K=V",
                   help="construction parameter (repeatable)")

    o = sub.add_parser("obstruct", help="sweep an obstruction certificate")
    common(o, seed=False)
    o.add_argument("--rep", required=True, help="rep.json file")
    o.add_argument("--presentation", help="presentation JSON (default: free)")
    o.add_argument("--witness", action="append", required=True,
                   help="witness word, e.g. 'a1 b1 a1^-1 b1^-1 a2^2'")
    o.add_argument("--indices", default="",
                   help="comma-separated exterior indices (default 1..dim/2)")

    d = sub.add_parser("diagnose", help="finite-scale gap or QI profile")
    common(d, seed=False, tol=False)
    d.add_argument("--rep", required=True)
    group = d.add_mutually_exclusive_group(required=True)
    group.add_argument("--gap", type=int, metavar="I",
                       help="profile log(sigma_i/sigma_{i+1})")
    group.add_argument("--qi", action="store_true",
                       help="profile log(sigma_1/sigma_dim)")
    d.add_argument("--radius", type=int, default=None)
    d.add_argument("--restrict", default=None,
                   help="comma-separated generator labels to sweep over")

    r = sub.add_parser("reproduce", help="build and diff against expectations")
    common(r)
    r.add_argument("name", help=f"one of: {', '.join(known_constructions())}")
    r.add_argument("--param", action="append", metavar="K=V")

    ls = sub.add_parser("limitset", help="sample attracting lines of a tensor build")
    common(ls)
    ls.add_argument("--rep", required=True)
    ls.add_argument("--samples", type=int, default=500)
    return parser


def _cmd_build(args, run: _Run) -> int:
    result = build_named(args.name, _parse_params(args.param),
                         seed=args.seed, tol=args.tol)
    run.write("rep.json", _canonical_json(result.rep.to_json()))
    run.write("build.json", _canonical_json(result.manifest))
    run.extra = {"construction": args.name, "seed": args.seed, "tol": args.tol,
                 "params": _parse_params(args.param)}
    print(f"built {args.name} (dim {result.rep.dim}) -> {run.dir}")
    return 0


def _cmd_obstruct(args, run: _Run) -> int:
    rep = RepSpec.load(args.rep)
    pres = (Presentation.load(args.presentation) if args.presentation
            else Presentation.free(rep.alphabet))
    witnesses = [Word.parse(rep.alphabet, w) for w in args.witness]
    if args.indices:
        try:
            indices = [int(tok) for tok in args.indices.split(",") if tok]
        except ValueError:
            raise InputError("--indices expects comma-separated integers,"
                             f" got {args.indices!r}") from None
    else:
        indices = list(range(1, rep.dim // 2 + 1))
    cert = certify_not_limit(rep, witnesses, indices, pres, tol=args.tol)
    run.write("certificate.json", _canonical_json(cert.to_json()))
    run.extra = {"tol": args.tol}
    covered = [e.index for e in cert.entries if e.covered]
    uncovered = [e.index for e in cert.entries if not e.covered]
    print(f"covered indices: {covered}; uncovered: {uncovered}")
    if cert.covered_all:
        return 0
    if any(e.reason.startswith("classification indeterminate")
           for e in cert.entries if not e.covered):
        return 3
    return 1


def _cmd_diagnose(args, run: _Run) -> int:
    rep = RepSpec.load(args.rep)
    if args.restrict == "":
        raise InputError("--restrict needs at least one generator label")
    restrict = None if args.restrict is None else args.restrict.split(",")
    if args.gap is not None:
        profile = gap_profile(rep, args.gap, radius=args.radius,
                              subalphabet=restrict)
    else:
        profile = qi_profile(rep, radius=args.radius, subalphabet=restrict)
    run.write("profile.json", _canonical_json(profile.to_json()))
    run.write("profile.csv", profile.to_csv())
    print(f"verdict: {profile.verdict} ({profile.note})")
    return {"pass": 0, "inconclusive": 3}.get(profile.verdict, 1)


def _cmd_reproduce(args, run: _Run) -> int:
    report = run_reproduction(args.name, _parse_params(args.param),
                              seed=args.seed, tol=args.tol)
    run.write("report.json", _canonical_json(report))
    run.extra = {"construction": args.name, "seed": args.seed, "tol": args.tol}
    for check in report["golden"]["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"  [{mark}] {check['name']}")
    print(f"reproduce {args.name}: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def _cmd_limitset(args, run: _Run) -> int:
    rep = RepSpec.load(args.rep)
    sample = sample_limit_set(rep, args.samples, seed=args.seed, tol=args.tol)
    run.write("limitset.csv", sample.to_csv())
    run.write("limitset.json", _canonical_json(sample.to_json()))
    run.extra = {"seed": args.seed, "tol": args.tol}
    print(f"{len(sample.words)} proximal samples, max rank defect "
          f"{sample.max_defect:.3e}")
    return 0


_DISPATCH = {
    "build": _cmd_build,
    "obstruct": _cmd_obstruct,
    "diagnose": _cmd_diagnose,
    "reproduce": _cmd_reproduce,
    "limitset": _cmd_limitset,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        run = _Run(args.out, argv, args.subcommand)
        code = _DISPATCH[args.subcommand](args, run)
        run.finish()
        return code
    except (InputError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, SearchError, SamplingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
