#!/usr/bin/env python3
"""Write the stored quote references for the default seed.

    python3 bench/make_references.py

For the ``chain`` and ``scatter`` quotes of seed 0, stores (op
fingerprint, price at ``REF_TOL``, discount factor) in
``bench/references/``; a quote that fails at the quote accuracy needs no
reference and is stored with null ones.  ``run.py`` checks quotes
against these and computes references itself, after the timed loop, for
any other seed or op.  Rerun only when the generated inputs change; the
fingerprints keep a stale entry from being used.
"""

import json
import sys

import run

SEED = 0


def main():
    run.import_library()
    import workloads

    run.REFERENCES.mkdir(exist_ok=True)
    for workload in ("chain", "scatter"):
        ops = workloads.make_ops(workload, SEED)
        rows = []
        for op in ops:
            try:
                workloads.price_quote(op, workloads.quote_config())
            except workloads.hc.PricingError:
                rows.append([run.fingerprint(op), None, None])
                continue
            ref, disc = run.compute_reference(op)
            rows.append([run.fingerprint(op), ref, disc])
        path = run.reference_file(workload, SEED)
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n")
        print("%s: %d references written to %s" % (workload, len(rows),
                                                    path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
