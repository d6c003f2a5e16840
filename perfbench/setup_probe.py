"""Set-up time of vclab in a fresh interpreter: `import vclab.cli` plus one
tiny first call of each command a workload uses, so cost moved from import
time into a lazy first call still counts.

Usage: python3 setup_probe.py '<JSON list of CLI argument lists>'
(with vclab importable). Prints one JSON line: setup_s, calls, failed, and
calibration_s, the calibration mix timed after set-up in the same process.
"""

import json
import sys
import time


def main() -> int:
    calls = json.loads(sys.argv[1])
    start = time.perf_counter()
    import vclab.cli

    failed = 0
    for argv in calls:
        try:
            failed += vclab.cli.main(argv) != 0
        except Exception:  # a call that raises is a failed job, not a lost sample
            failed += 1
    elapsed = time.perf_counter() - start
    from calibration import calibrate

    print(json.dumps({"setup_s": elapsed, "calibration_s": calibrate(),
                      "calls": len(calls), "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
