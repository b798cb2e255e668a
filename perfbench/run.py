"""consensus-lab benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload stretching-stream --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from the checkout's `src/`.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  The line before it
carries the machine and environment and the input and output hashes.  The
full record goes to `.perfbench_out/<workload>.trace<k>.json` and a traced
run's spans to `.perfbench_out/<workload>.spans.jsonl`.  See README.md.
"""

import os
import sys
from pathlib import Path

# One process, one thread: BLAS and OpenMP pools are capped before numpy loads.
THREAD_CAPS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    os.environ.update(THREAD_CAPS)
    if not (SRC / "consensus_lab" / "__init__.py").is_file():
        print(f"error: no consensus_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy and consensus_lab, so only after the caps are set

    return harness.main(sys.argv[1:], THREAD_CAPS)


if __name__ == "__main__":
    sys.exit(main())
