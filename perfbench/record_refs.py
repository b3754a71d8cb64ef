"""Record the square-2d reference values the benchmark checks against.

    python3 perfbench/record_refs.py      # about 6 minutes on 2 cores

Runs the CLI `solve` and `conjecture` once for every inner box the seeded
square-2d distribution can produce, up to the square's symmetries, and
rewrites perfbench/square_refs.json with sup_norm_u, total_mass,
harmonic_gap and the regularization step counts.  Run it only on a commit
whose answers are the accepted reference.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import Square2D, square_keys  # noqa: E402


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for key in square_keys():
            (ax, sx), (ay, sy) = (tuple(int(v) for v in part.split(","))
                                  for part in key.split(";"))
            workload = Square2D(ROOT, Path(tmp), seed=0, box=(ax, sx, ay, sy))
            workload.run_pass()
            if workload.rc != (0, 0):
                print(f"box {key}: CLI exit codes {workload.rc}", file=sys.stderr)
                return 1
            refs[key] = workload.outputs()
            print(key, refs[key], flush=True)
    (HERE / "square_refs.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
