import os
from pathlib import Path

from hypothesis import HealthCheck, settings

# Tests that run the CLI in a subprocess import the same source tree that
# pytest's `pythonpath` setting gives the tests themselves.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")
