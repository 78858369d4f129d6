"""Write reference.json: the values and CSV hashes every check compares with.

Run once, from the repository root, on the commit whose outputs are the
reference (the seed commit for the stored file):

    python3 benchmarks/make_reference.py

Every stored value is seed-independent; the Monte Carlo columns are not
stored and are checked against the closed form instead.
"""

from __future__ import annotations

import json
import os
import tempfile

from run import HERE, prepare


def main() -> None:
    root = os.getcwd()
    prepare(root)
    import checks
    from workloads import WORKLOADS, write_configs

    reference = {}
    with tempfile.TemporaryDirectory(dir=root) as work:
        write_configs(work)
        for workload in WORKLOADS.values():
            for job in workload.jobs:
                if job.call is not None:
                    result = job.call(0)
                    reference[job.name] = {k: result[k] for k in job.ref_keys}
                    continue
                import metabcrb.cli
                rc = metabcrb.cli.main(job.resolve_argv(work, 0))
                if rc != 0:
                    raise SystemExit(f"{job.name} exited {rc}; not a usable reference")
                path = os.path.join(work, job.csv)
                entry = checks.reference_entry(checks.read_csv(path), job.ref_keys)
                if not job.seeded:
                    entry["sha256"] = checks.sha256(path)
                reference[job.name] = entry
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
