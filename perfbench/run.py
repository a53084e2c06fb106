"""Benchmark entry point.

    python3 perfbench/run.py --workload focus-replay --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout: the program under test is the
`conductor` package in `src/` next to this directory, imported from there
and nowhere else. Without it the benchmark exits with code 2 and prints no
result. See perfbench/README.md for the workloads and metrics.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "conductor" / "__init__.py").is_file():
        print(f"perfbench: no conductor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conductor

    if Path(conductor.__file__).resolve().parent != (SRC / "conductor").resolve():
        print(f"perfbench: imported conductor from {conductor.__file__}", file=sys.stderr)
        return 2
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
