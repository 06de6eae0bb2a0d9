"""Record the output digests that run.py checks, for a range of workload seeds.

    python3 perfbench/pin.py 0 31

Runs each workload's first check_ops operations per seed with the
program in this checkout and writes perfbench/expected.json. Pin only
from a program whose outputs are known good: run.py fails any later run
whose outputs differ.
"""

from __future__ import annotations

import json
import sys
import tempfile

import workloads


def main(argv=None) -> int:
    first, last = (int(a) for a in (argv or sys.argv[1:]))
    workloads.import_program()
    pinned = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            seeds = {}
            for seed in range(first, last + 1):
                wl = cls(seed, workloads.Path(tmp))
                ops = workloads.measure(wl, 0.0, n_ops=cls.check_ops)
                if ops["problems"]:
                    print(f"{name} seed {seed}: {ops['problems']}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = workloads.prefix_digest(ops["digest"], cls.check_ops)
                print(f"{name} seed {seed}: {seeds[str(seed)][:16]}", flush=True)
            pinned[name] = {"check_ops": cls.check_ops, "seeds": seeds}
    workloads.EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
