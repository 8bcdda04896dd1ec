"""Run the tests against this checkout's ``src``, also in the Python
subprocesses some tests start (``pyproject.toml`` puts it on ``sys.path``
of the test process only)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
