import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.1 s of import time and 12 MiB of memory;
    # the package's own root finding does not need it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import singell, singell.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
