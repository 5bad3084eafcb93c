"""Record the golden outputs of every op in every workload's pool.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Writes perfbench/goldens/<workload>.json, mapping each op key to its
canonical record. Run it only on a commit whose outputs are trusted: the
benchmark counts every later deviation from these files as a failed op.
"""

from __future__ import annotations

import json
import sys
import time

from worker import HERE, import_library


def main(names: list[str]) -> int:
    import_library()
    from workloads import WORKLOADS

    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]()
        t0 = time.perf_counter()
        goldens = {}
        for key in wl.pool():
            wl.start_pass()
            inp = wl.prepare(key)
            wl.before_op(inp)
            goldens[key] = wl.record(inp, wl.execute(inp))
        with open(HERE / "goldens" / f"{name}.json", "w") as fh:
            json.dump(goldens, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(goldens)} ops in {time.perf_counter() - t0:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
