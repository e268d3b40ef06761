"""Record ``reference.json``: the report fields and battery details that the
oracle compares each run against.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference, from the root of its
checkout.  Each table is analysed once, under the labelling of seed 0; the
recorded fields do not depend on the labelling.  Closed forms and the
listed morphisms are checked before anything is written.
"""

import json
import shutil
import sys
import time

import oracle
import run


def main():
    workdir = run.BENCH / ".work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    doc = {"recorded_from": run.environment()}
    deadline = time.monotonic() + 600
    for workload in run.WORKLOADS:
        bases = {item.key: item.build() for item in run.corpus.items_of(workload)}
        ops = run.with_outputs(run.pass_ops(workload, workdir, 0, 0, bases), workdir, workload)
        result = run.run_worker(workdir, workload, ops, False, deadline)
        if result is None:
            sys.exit(f"{workload}: the worker failed")
        doc[workload] = {}
        for op, record in zip(ops, result["ops"]):
            if record["rc"] != 0 or record["error"] is not None:
                sys.exit(f"{workload}/{op['name']}: {record}")
            text = open(op["out"]).read()
            if workload == "verify":
                row = json.loads(text)[0]
                if not row["passed"]:
                    sys.exit(f"verify/{op['name']} failed: {row['detail']}")
                doc[workload][op["name"]] = {"detail": row["detail"]}
                continue
            errors = oracle.check_report(op["item"], text, op["table"], None)
            if errors:
                sys.exit(f"{workload}/{op['name']}: {errors}")
            doc[workload][op["name"]] = oracle.invariants(json.loads(text))
    shutil.rmtree(workdir)
    (run.BENCH / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
