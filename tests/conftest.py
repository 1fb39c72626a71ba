"""Give the subprocesses the tests start (the CLI, the demos) the same src/.

pyproject.toml's `pythonpath` puts src/ on this process's sys.path only.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)
