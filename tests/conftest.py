import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from specgap import certify

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def strict_json():
    """Round trip a document through strict JSON: NaN and Infinity are
    refused both when writing and when reading."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    def roundtrip(doc):
        return json.loads(json.dumps(doc, allow_nan=False),
                          parse_constant=reject)
    return roundtrip


@pytest.fixture
def profile_steps(monkeypatch):
    """The words that profiles hand to their sweep's step from now on, as
    ``(codes, state)`` per call: one row of letter codes per word and the
    stepped state.  The letters a paired profile steps for their logs,
    before its sweep starts, are left out.  Every block of the sweep is
    kept alive, so this is for small balls."""
    steps, blocks = [], []
    real_sweep, real_products = (certify.iter_ball_images,
                                 certify.graded_products)

    def sweep(*args):
        for block in real_sweep(*args):
            blocks.append(block)
            yield block

    def products(structure):
        root, step, logs = real_products(structure)
        blocks.clear()

        def spy(state, parent, letter):
            out = step(state, parent, letter)
            if blocks:
                codes = next(c for _, c, s in reversed(blocks) if s is state)
                steps.append((np.concatenate(
                    [codes[parent], letter[:, None].astype(codes.dtype)],
                    axis=1), out))
            return out
        return root, spy, logs
    monkeypatch.setattr(certify, "iter_ball_images", sweep)
    monkeypatch.setattr(certify, "graded_products", products)
    return steps


@pytest.fixture
def unbounded(monkeypatch):
    """Call to switch the last-length bound off from then on: its tables
    bound nothing, so a profile steps one word of every inverse pair."""
    def nothing(parents, letters, ratios):
        shape = (len(letters), len(parents))
        return np.full(shape, -np.inf), np.full(shape, np.inf)
    return lambda: monkeypatch.setattr(certify, "_last_length_bounds",
                                       nothing)
