"""Make the package importable by the interpreters tests start, as the
pytest ``pythonpath`` setting in pyproject.toml does for the test process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
