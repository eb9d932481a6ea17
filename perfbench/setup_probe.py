"""One cold set-up of an in-process workload, timed by the parent.

Usage: ``python -m perfbench.setup_probe <workload>``.  Imports the
program and builds what the workload needs before its first operation
(the Monte Carlo line ids, or a guarded ``hein`` deck), then prints
``ready``.  The parent times spawn-to-``ready``: interpreter start,
imports and builds, which is what a user pays before the first result.
"""

from __future__ import annotations

import sys


def main(workload: str) -> int:
    if workload == "mc_sweep":
        from repro.faults.montecarlo import reference_line_ids

        reference_line_ids()
    elif workload == "guard_solubility":
        from repro.serve.session import build_guarded_deck, default_serve_options

        build_guarded_deck("hein", {}, None, default_serve_options())
    else:
        print(f"no in-process set-up for workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
