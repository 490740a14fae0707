"""specgap benchmark: one client, closed loop, one operation at a time.

    python3 bench/run.py --workload reproduce-paper --seed 1 --seconds 24 --trace 0

The process imports specgap from ``src/`` once, writes the workload's inputs
from the seed, warms up, then repeats whole passes over the workload's
operations for ``--seconds`` seconds, calling ``specgap.cli.main`` the way a
user's script would.  After the timed passes it checks every distinct output
against ``reference.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate, and the metrics are per layer.
See README.md for the metrics, the inputs and the tolerances.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from spans import Tracer
from workloads import WORKLOADS, CheckError, read_outputs

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUNS = BENCH / "_runs"
SETUP_REPEATS = 5
# traced self times must add up to the traced pass time within this share,
# or the traced run is not correct
ATTRIBUTION_TOL = 0.02

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = (
    ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("builders.build_named.self_s", "s"), ("builders.build_named.calls", "count"),
    ("reproduce.verify_golden.self_s", "s"),
    ("obstruct.certify_not_limit.self_s", "s"),
    ("obstruct.certify_not_limit.indices", "count"),
    ("obstruct.verify_certificate.self_s", "s"),
    ("obstruct.find_negative_lambda.self_s", "s"),
    ("obstruct.find_negative_lambda.candidates", "count"),
    ("obstruct.check_domination.self_s", "s"),
    ("obstruct.check_domination.words", "count"),
    ("obstruct.sample_limit_set.self_s", "s"),
    ("obstruct.sample_limit_set.samples", "count"),
    ("certify.gap_profile.self_s", "s"), ("certify.qi_profile.self_s", "s"),
    ("certify.words_evaluated", "count"), ("certify.words_per_s", "1/s"),
    ("reps.iter_ball_images.self_s", "s"), ("reps.iter_ball_images.words", "count"),
    ("reps.evaluate.calls", "count"), ("reps.evaluate.self_s", "s"),
    ("reps.top_modulus.calls", "count"), ("reps.top_modulus.self_s", "s"),
    ("linalg.classify_exterior.self_s", "s"),
    ("linalg.classify_exterior.calls", "count"),
    ("linalg.classify_exterior.dense_calls", "count"),
    ("linalg.classify_exterior.subset_calls", "count"),
    ("linalg.classify_exterior.max_multiplicity", "count"),
    ("linalg.exterior_power.self_s", "s"), ("linalg.exterior_power.minors", "count"),
    ("linalg.classify.self_s", "s"), ("linalg.classify.calls", "count"),
    ("linalg.spectrum.self_s", "s"), ("linalg.spectrum.calls", "count"),
    ("words.enumerate_ball.self_s", "s"), ("words.enumerate_ball.words", "count"),
    ("numpy.linalg.svd.calls", "count"), ("numpy.linalg.svd.s", "s"),
    ("numpy.linalg.eig.calls", "count"), ("numpy.linalg.eig.s", "s"),
    ("numpy.linalg.eigvals.calls", "count"), ("numpy.linalg.eigvals.s", "s"),
    ("numpy.linalg.det.calls", "count"), ("numpy.linalg.det.s", "s"),
    ("trace.overhead_s", "s"), ("trace.pass_s", "s"),
)

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import specgap.cli; "
                "print(time.perf_counter() - t)")


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def blas_threads() -> str:
    """The OpenBLAS build and thread count numpy runs with, as found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    if not paths:
        return "no OpenBLAS loaded"
    lib = ctypes.CDLL(paths[0])
    for suffix in ("64_", ""):
        for prefix in ("scipy_openblas", "openblas"):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            return f"{config().decode()}, {threads()} threads"
    return f"{paths[0]}, thread count unknown"


def import_seconds() -> float:
    """Import time of specgap in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.outcomes: dict[tuple, tuple] = {}   # key -> (op index, result, files)
        self.keys: list[list[tuple]] = []        # per pass, per op
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.bytes_written = 0

    def run_pass(self, tracer=None):
        wall = cpu = 0.0
        keys = []
        sink = io.StringIO()
        for index, op in enumerate(self.ops):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is not None:
                    tracer.active = True
                t, c = perf_counter(), process_time()
                try:
                    result = op.run()
                except Exception as exc:  # a crash is a failed operation
                    result = f"raised {type(exc).__name__}: {exc}"
                cpu += process_time() - c
                wall += perf_counter() - t
                if tracer is not None:
                    tracer.active = False
            sink.seek(0)
            sink.truncate()
            files = read_outputs(op.out)
            if tracer is not None:
                self.bytes_written += sum(len(b) for b in files.values())
            key = (index, repr(result),
                   tuple(sorted((n, hash(b)) for n, b in files.items())))
            self.outcomes.setdefault(key, (index, result, files))
            keys.append(key)
        self.keys.append(keys)
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall

    def run_for(self, seconds: float, tracer=None) -> list[float]:
        """Whole passes, as many as fit in ``seconds`` (at least one)."""
        start, walls = perf_counter(), []
        while not walls or perf_counter() - start + walls[-1] <= seconds:
            walls.append(self.run_pass(tracer))
        return walls

    def verify(self, known_faults: dict) -> tuple[int, int, bool]:
        """Check each distinct outcome once; return (attempted, failed, correct)."""
        verdicts = {}
        for key, (index, result, files) in self.outcomes.items():
            op = self.ops[index]
            try:
                if isinstance(result, str) and result.startswith("raised "):
                    raise CheckError(result)
                op.check(result, files)
                verdicts[key] = None
            except CheckError as exc:
                verdicts[key] = str(exc)
                tag = "known fault" if op.label in known_faults else "FAILED"
                log(f"{tag}: {op.label}: {exc}")
        failed = [self.ops[k[0]].label for keys in self.keys for k in keys
                  if verdicts[k] is not None]
        attempted = sum(len(keys) for keys in self.keys)
        correct = all(label in known_faults for label in failed)
        return attempted, len(failed), correct


def setup(workload, seed: int, root: Path):
    """Import in a fresh interpreter, write inputs, warm up; repeated, and
    the median reported.  Returns (ops, setup seconds)."""
    times = []
    ops = None
    sink = io.StringIO()
    for k in range(SETUP_REPEATS):
        seconds = import_seconds()
        t = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ops, warm = workload.prepare(root / f"setup{k}", seed)
            for op in warm:
                op.run()
        times.append(seconds + perf_counter() - t)
    return ops, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specgap" / "__init__.py").is_file():
        log(f"specgap sources not found under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    import specgap.cli
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload](specgap.cli)

    root = RUNS / args.workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    ops, setup_s = setup(workload, args.seed, root)
    log(f"BLAS: {blas_threads()}")
    runner = Runner(ops)

    attributed = True
    if args.trace == 0:
        runner.run_for(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"wall_s": statistics.median(runner.walls),
                  "cpu_s": statistics.median(runner.cpus),
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        log(f"{len(runner.walls)} passes; pass walls "
            f"{[round(w, 4) for w in runner.walls]}")
    else:
        untraced, traced, tracer = traced_passes(runner, args.seconds)
        tracer.save(root / "spans.npz")
        metrics, attributed = layer_metrics(tracer, runner, untraced, traced)

    attempted, failed, correct = runner.verify(workload.known_faults)
    correct = correct and attributed
    log(f"{args.workload}: attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_passes(runner, seconds: float):
    """Untraced and traced passes in alternation, so that drift in the
    machine's speed reaches both alike; at least one of each."""
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
    return untraced, traced, tracer


def layer_metrics(tracer, runner, untraced, traced) -> tuple[dict, bool]:
    """Per-layer metrics per traced pass, and whether the self times
    account for the traced pass time within ATTRIBUTION_TOL."""
    passes = len(traced)
    raw = tracer.layer_metrics(passes)
    pass_s = sum(traced) / passes
    raw["cli.bytes_written"] = runner.bytes_written / passes
    raw["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    raw["trace.pass_s"] = pass_s
    profile_s = (raw.get("certify.gap_profile.total_s", 0.0)
                 + raw.get("certify.qi_profile.total_s", 0.0))
    raw["certify.words_per_s"] = (raw.get("certify.words_evaluated", 0) / profile_s
                                  if profile_s else 0.0)
    for kernel in ("svd", "eig", "eigvals", "det"):
        raw[f"numpy.linalg.{kernel}.s"] = raw[f"numpy.linalg.{kernel}.self_s"]
    attributed = tracer.attributed_s() / passes
    share = abs(pass_s - attributed) / pass_s
    log(f"traced pass {pass_s:.4f}s, self times sum to {attributed:.4f}s "
        f"({share:.2%} apart; tolerance {ATTRIBUTION_TOL:.0%})")
    if share > ATTRIBUTION_TOL:
        log("FAILED: self times do not account for the traced pass time")
    return ({name: {"value": raw.get(name, 0), "unit": unit}
             for name, unit in PER_LAYER}, share <= ATTRIBUTION_TOL)


if __name__ == "__main__":
    sys.exit(main())
