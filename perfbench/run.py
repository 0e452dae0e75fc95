"""nbrefute benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload xor-n60 --seed 1 --seconds 30 \
        --trace 0

Run from the repository root; the package is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, measured with tracing off; with --trace 1 they are the
per-layer ones from a traced run. The line before it is a JSON report with
the machine fingerprint, sample counts, certificate digests and, when
traced, every span's self time.
"""

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("xor-n60", "csp-n40", "desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up and exit; the harness times "
                             "fresh processes started this way as setup_s")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nbrefute", "__init__.py")):
        print(f"error: no nbrefute sources under {SRC}", file=sys.stderr)
        return 2
    # The BLAS pool is sized before numpy is first imported: one thread per
    # core this process may run on.
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = threads
    sys.path[:0] = [SRC, HERE]
    import nbrefute
    if os.path.dirname(os.path.abspath(nbrefute.__file__)) != os.path.join(
            SRC, "nbrefute"):
        print(f"error: imported nbrefute from {nbrefute.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness
    if args.setup_only:
        harness.set_up(args.workload, args.seed, WORKDIR)
        return 0
    try:
        line, report = harness.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), ROOT, WORKDIR)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
