"""Make EVAL worker subprocesses import the smoothcert under test.

pytest puts this checkout's ``src/`` on ``sys.path`` (``pythonpath`` in
pyproject.toml), but a worker started as ``python -m
smoothcert.eval_worker`` is a new interpreter and sees only
``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
