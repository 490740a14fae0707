"""The benchmark's tracer (bench/spans.py) wraps specgap's layers by name.

Installing it fails on any traced name the package no longer defines, so a
rename or deletion shows here instead of breaking traced benchmark runs.
"""

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
