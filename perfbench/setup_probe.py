"""One fresh-process set-up: import specrg, load each config, build its bases.

Usage: python3 perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]
A CONFIG is a model config or a run config, as ``specrg --config`` takes.
run.py times this whole process, interpreter start included, for setup_s.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(paths) -> int:
    if not (SRC / "specrg" / "__init__.py").is_file():
        print(f"no specrg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from specrg.cli import load_run_config

    for path in paths:
        _, spec = load_run_config(path)
        spec.full_basis()
        spec.reduced_fock_basis()
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    raise SystemExit(main(sys.argv[1:]))
