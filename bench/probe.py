"""Cold-start probe: ``import hestoncir``, then the workload's first op.

Started as a fresh interpreter by ``run.py``, with the library's
``src/`` on ``PYTHONPATH``.  Prints one JSON line: the CLOCK_MONOTONIC
time at which the import finished, which the parent compares with the
moment it started this process, and the import and first-op durations.
Building the first op's inputs is the benchmark's own work and is left
out of both.  A first op that fails with the library's ``PricingError``
has completed too: its time counts, and the main run reports the
failure.
"""

import argparse
import json
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    t0 = time.monotonic()
    import hestoncir
    imported = time.monotonic()

    import workloads
    op = workloads.first_op(args.workload, args.seed, args.smoke)
    t1 = time.monotonic()
    try:
        workloads.run_op(op, workloads.quote_config())
    except hestoncir.PricingError:
        pass
    first_op_s = time.monotonic() - t1
    print(json.dumps({"imported": imported, "import_s": imported - t0,
                      "first_op_s": first_op_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
