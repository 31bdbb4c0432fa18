"""Run ``python -m tvcount.cli ARGS`` with a speed calibration around it.

    python bench/shim.py ARGS...           same as python -m tvcount.cli ARGS
    python bench/shim.py --import-only     only import tvcount.cli

Times the CLI from the import of tvcount.cli to the end of the command.
Interpreter start and exit are left out: tvcount cannot change them, and no
calibration slice can run during them, so they carry noise and no signal.
The last stderr line is ``#calib <seconds> <scale>``: that time, less the
calibration slices run during it, and the factor that turns it into
reference seconds (see calib.py).  Stdout and the exit code are the CLI's.
"""

import runpy
import sys
import time

from calib import Speed


def main() -> int:
    speed = Speed()
    speed.bracket()
    code = 0
    t0 = time.perf_counter()
    try:
        with speed.sampling():
            if sys.argv[1:] == ["--import-only"]:
                import tvcount.cli  # noqa: F401
            else:
                sys.argv = ["tvcount", *sys.argv[1:]]
                runpy.run_module("tvcount.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - t0 - speed.inflight
    sys.stdout.flush()
    speed.bracket()
    sys.stderr.write(f"\n#calib {seconds!r} {speed.scale()!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
