"""Benchmark of the ppvf simulator.

    python3 bench/run.py --workload directional --seed 1001 --seconds 20 --trace 0

Builds the workload's trace from ``--seed`` (generate, write, load back: the
set-up a ``gen-trace`` + ``simulate`` user pays), then replays it once per
policy, in rounds, while whole rounds fit in ``--seconds`` (at least one
round). Every policy run is checked; its report CSVs are hashed and compared
with ``bench/golden.json``. ``--trace 0`` prints the end-to-end metrics;
with ``--trace 1`` each round is one untraced and one traced pass, and the
per-layer metrics are printed. The last line of standard output is the JSON
result; metric names and units come from ``BENCHMARK.json``. Run artifacts
go to ``.bench_out/<workload>-seed<seed>-trace<0|1>/``.
"""

import os
import sys

# One BLAS thread, set before numpy loads: fleet's two worker threads would
# otherwise run four compute threads on two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isfile(os.path.join(src, "ppvf", "__init__.py")):
        print(f"error: no ppvf sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
