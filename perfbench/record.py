"""Record the reference result of every operation in every workload pool.

    python3 perfbench/record.py [workload ...]

Writes perfbench/reference.json. Run it only at a commit whose outputs are
known to be right: the benchmark counts every later deviation as a failure.
"""

import json
import sys

import run
import workloads


def record(workload) -> dict:
    mods = run.import_fresh()
    ctx = workload.setup(mods, run.OUT_DIR / "work")
    results = {}
    for key in workload.all_keys():
        workload.prepare(ctx, key)
        fields, _, _ = workload.run(ctx, key)
        problems = [k for k, v in fields.items() if k.endswith("diverged") and v]
        if problems:
            raise RuntimeError(f"{workload.name} {key} diverged: {problems}")
        results[key] = fields
        print(f"{workload.name} {key}", file=sys.stderr)
    return results


def main(names) -> int:
    try:
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in names or sorted(workloads.WORKLOADS):
        reference[name] = record(workloads.WORKLOADS[name])
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
