import json

import pytest
from hypothesis import HealthCheck, settings

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
