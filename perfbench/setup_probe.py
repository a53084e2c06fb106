"""Set-up time in a fresh interpreter: import conductor, load every dataset
file of a pool and the backend (the replay fixture parse, or LiveBackend
construction as the CLI builds it). Prints the seconds taken and the host
slowdown the calibration kernel measures right after.

    python3 perfbench/setup_probe.py <src dir> <pool dir> <replay|live>
"""

import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> None:
    src, pool, backend = argv
    datasets = sorted(Path(pool).glob("samples_*.jsonl"))
    sys.path.insert(0, src)
    start = perf_counter()
    from conductor import LiveBackend, ReplayBackend, load_dataset
    from conductor.core import SchemaKind

    for path in datasets:
        load_dataset(str(path), SchemaKind(path.stem.split("_")[1]))
    if backend == "live":
        LiveBackend("http://127.0.0.1:9/v1")
    else:
        ReplayBackend.load(f"{pool}/fixtures.jsonl")
    setup_s = perf_counter() - start
    from calibrate import kernel, slowdown

    print(setup_s, slowdown([kernel() for _ in range(5)]))


if __name__ == "__main__":
    main(sys.argv[1:])
