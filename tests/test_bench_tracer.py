"""The benchmark's tracer (bench/spans.py) wraps specgap's layers by name.

Installing it fails on any traced name the package no longer defines, so a
rename or deletion shows here instead of breaking traced benchmark runs.
"""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import specgap.certify
    import specgap.cli  # noqa: F401 -- loads every module the tracer patches

    original = specgap.certify.gap_profile
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert specgap.certify.gap_profile is not original
    finally:
        tracer.uninstall()
    assert specgap.certify.gap_profile is original


def test_tracing_changes_no_output(monkeypatch, tmp_path):
    # every output, and the manifest but for its command line, of a traced
    # run equals the untraced run's byte for byte
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    from specgap.cli import main

    inputs = tmp_path / "inputs"
    assert main(["build", "--name", "thm41_pattern", "--param", "n=7",
                 "--out", str(inputs / "thm41")]) == 0
    assert main(["build", "--name", "thm1ii_d12",
                 "--out", str(inputs / "d12")]) == 0
    words = json.loads((inputs / "thm41" / "build.json").read_text())["witnesses"]
    d12 = str(inputs / "d12" / "rep.json")
    commands = {
        "reproduce": ["reproduce", "thm1i_d6"],
        "obstruct": ["obstruct", "--rep", str(inputs / "thm41" / "rep.json"),
                     "--witness", words["main"], "--witness", words["second"]],
        "limitset": ["limitset", "--rep", d12, "--samples", "300"],
        "diagnose": ["diagnose", "--rep", d12, "--gap", "3", "--radius", "2"],
    }

    def run_all(root):
        return {tag: main(argv + ["--out", str(root / tag)])
                for tag, argv in commands.items()}

    plain = run_all(tmp_path / "plain")
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        traced = run_all(tmp_path / "traced")
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == plain == {"reproduce": 0, "obstruct": 0, "limitset": 0,
                               "diagnose": 3}
    assert sum(tracer.calls) > 0
    for tag in commands:
        names = sorted(p.name for p in (tmp_path / "plain" / tag).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "traced" / tag).iterdir())
        for name in names:
            a = (tmp_path / "plain" / tag / name).read_bytes()
            b = (tmp_path / "traced" / tag / name).read_bytes()
            if name == "manifest.json":  # the command names its --out
                a, b = json.loads(a), json.loads(b)
                a.pop("command"), b.pop("command")
            assert a == b, f"{tag}: {name}"
