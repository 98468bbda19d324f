"""One fresh-interpreter sample of set-up time and first-op latency.

    python3 perfbench/first_op.py <workload> <seed> <index> <workdir>

Times ``import ptjc`` before anything else loads, then op ``index`` of
the workload, whose first call also imports ``ptjc.cli``, so lazy
set-up shows in the first op.  Prints one JSON line.
"""
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    name, seed, index, workdir = argv[1], int(argv[2]), int(argv[3]), Path(argv[4])
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ptjc  # noqa: F401
    setup_s = time.perf_counter() - t0

    import workloads
    workload = workloads.WORKLOADS[name]()
    workdir.mkdir(parents=True, exist_ok=True)
    op = workload.make_op(seed, index, workdir)
    result = workloads.run_op(workload, op)
    print(json.dumps({"setup_s": setup_s, "first_op_s": result.wall_s,
                      "cpu_s": result.cpu_s, "errors": result.errors,
                      "size": op.size, "params": op.params}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
