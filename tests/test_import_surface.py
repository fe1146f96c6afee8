"""``import repro`` needs numpy and nothing else.

``pyproject.toml`` declares numpy only, so on a clean runner any other
third-party import at module level kills every ``repro`` command.  The
sandbox has such packages installed (networkx, scipy, hypothesis, …), so
the import runs in a subprocess with every one of them masked.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MASKED_IMPORT = """
import sys
from importlib.metadata import packages_distributions

masked = sorted(
    name for name in packages_distributions()
    if name.isidentifier() and name not in ("numpy", "repro")
)
assert "networkx" in masked or "pytest" in masked, masked  # the mask is not vacuous
for name in masked:
    sys.modules[name] = None  # `import name` now raises ImportError

import repro, repro.cli
print(len(masked))
"""


def test_import_needs_numpy_only():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", MASKED_IMPORT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
