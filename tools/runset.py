"""Run the fixed command set that byte-identity claims cite.

    python tools/runset.py OUTDIR --src PATH

imports ``specgap`` from PATH (a checkout's ``src`` directory) and calls
``specgap.cli.main`` on each command, from inside OUTDIR, with every
``--rep`` and ``--out`` path relative to it, so that no manifest records
where the checkout or OUTDIR lies.  Each command's output directory also
gets ``stdout.txt``, and ``codes.txt`` lists every command with its exit
code.  ``verified.txt`` gives, for each ``reproduce/<id>-s<seed>``,
``verify_certificate`` of its report's certificate against
``build/<id>-s<seed>/rep.json``.  Two checkouts are then compared with
one ``diff -r`` of their OUTDIRs, verification outcomes included.  The set:

- ``build`` and ``reproduce`` of the seven construction ids at seeds 0, 7;
- of each such build, every gap profile and the QI profile at radius 4
  (dim <= 6) or 3;
- ``build`` and ``reproduce`` at seed 7 of each entry of ``PARAMS``, which
  sets a parameter explicitly or in place of a computed default, in
  ``<id>-<params>-s7``;
- ``thm1ii_d12`` at seeds 7 and 23, gaps 1, 3, 6 and QI at radius 4;
- the QI profiles of ``schottky_sl2r(2, 2.5)`` at radius 10 and of
  ``schottky_sl2r(2, 4.0)`` at radius 8;
- the default-radius QI profile of ``thm1i_d6`` at seed 0, whose ball
  passes ``certify.MAX_WORDS``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

IDS = ("prop42_sl4", "prop42_sl6", "thm1i_d5", "thm1i_d6", "thm1i_dge7",
       "thm1ii_d12", "thm41_pattern")
# (directory, id, --param values), each built and reproduced at seed 7
PARAMS = (("thm1i_dge7-d9", "thm1i_dge7", ["d=9"]),
          ("thm41_pattern-n7-q-100", "thm41_pattern", ["n=7", "q=-100"]),
          ("prop42_sl4-x3-y1", "prop42_sl4", ["x=3", "y=1"]),
          ("prop42_sl6-s4-t0.5", "prop42_sl6", ["s=4", "t=0.5"]),
          ("thm1i_d6-r8", "thm1i_d6", ["dom_radius=8"]),
          ("thm1i_d5-h3", "thm1i_d5", ["headroom=3"]))


def profiles(build: str, gaps, radius: str):
    """(out, argv) of ``diagnose`` on ``build``'s rep: each gap, then QI."""
    for stat in [*(["--gap", str(i)] for i in gaps), ["--qi"]]:
        name = "qi" if stat == ["--qi"] else f"gap{stat[1]}"
        yield (f"diagnose/{build}-{name}-r{radius}",
               ["--rep", f"build/{build}/rep.json", *stat, "--radius", radius])


def commands(dims: dict[str, int]):
    """(out, argv) of each ``diagnose`` after the builds; ``dims`` maps
    each build's directory to its representation's dimension."""
    for build, dim in dims.items():
        yield from profiles(build, range(1, dim), "4" if dim <= 6 else "3")
    for seed in (7, 23):
        yield from profiles(f"thm1ii_d12-s{seed}", (1, 3, 6), "4")
    for spread, radius in (("2.5", "10"), ("4.0", "8")):
        yield (f"diagnose/schottky-{spread}-qi-r{radius}",
               ["--rep", f"inputs/schottky-{spread}.json", "--qi",
                "--radius", radius])
    yield ("diagnose/thm1i_d6-s0-qi-default",
           ["--rep", "build/thm1i_d6-s0/rep.json", "--qi"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, required=True,
                        help="the src directory of the checkout to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from specgap.cli import main as specgap
    from specgap.obstruct import verify_certificate
    from specgap.reps import RepSpec, schottky_sl2r

    args.outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)
    codes = []

    def run(sub, out, rest):
        argv = [sub, *rest, "--out", out]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = specgap(argv)
        Path(out).mkdir(parents=True, exist_ok=True)  # also when refused
        Path(out, "stdout.txt").write_text(stdout.getvalue())
        codes.append(f"{code} {' '.join(argv)}\n")

    Path("inputs").mkdir(exist_ok=True)
    for spread in (2.5, 4.0):
        Path(f"inputs/schottky-{spread}.json").write_text(
            json.dumps(schottky_sl2r(2, spread).to_json()))
    dims = {}
    for name in IDS:
        for seed in (0, 7, 23) if name == "thm1ii_d12" else (0, 7):
            build = f"{name}-s{seed}"
            run("build", f"build/{build}", ["--name", name, "--seed", str(seed)])
            if seed != 23:
                run("reproduce", f"reproduce/{build}", [name, "--seed", str(seed)])
                dims[build] = json.loads(
                    Path(f"build/{build}/build.json").read_text())["dim"]
    for stem, name, values in PARAMS:
        params = [arg for v in values for arg in ("--param", v)]
        run("build", f"build/{stem}-s7", ["--name", name, "--seed", "7", *params])
        run("reproduce", f"reproduce/{stem}-s7", [name, "--seed", "7", *params])
    for out, rest in commands(dims):
        run("diagnose", out, rest)
    Path("codes.txt").write_text("".join(codes))
    verified = []
    for build in [*dims, *(f"{stem}-s7" for stem, _, _ in PARAMS)]:
        report = json.loads(Path(f"reproduce/{build}/report.json").read_text())
        ok = verify_certificate(report["golden"]["certificate"],
                                RepSpec.load(f"build/{build}/rep.json"))
        verified.append(f"{ok} reproduce/{build}\n")
    Path("verified.txt").write_text("".join(verified))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
