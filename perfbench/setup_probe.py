"""Cold set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py <src-dir>

Times `import voigtw` up to its first result, one call that folds a y
and evaluates points on both sides of the computing boundary.  numpy is
imported before the clock starts, so the time is the package's own.  The
first calls into `coeffs.get_tables` (the exact integer tables) are timed
too, by wrapping the name `taylor` calls it through.  The machine's speed
is taken right after (speed.py).  Prints one JSON line.
"""

import json
import sys
import time

import numpy as np

import speed

FIRST_Y = 0.05
FIRST_XS = np.linspace(0.0, 40.0, 64)


def main(src):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import voigtw
    import voigtw.taylor

    tables_s = 0.0
    get_tables = getattr(voigtw.taylor, "get_tables", None)
    if get_tables is not None:

        def timed_get_tables(*args, **kwargs):
            nonlocal tables_s
            t0 = time.perf_counter()
            try:
                return get_tables(*args, **kwargs)
            finally:
                tables_s += time.perf_counter() - t0

        voigtw.taylor.get_tables = timed_get_tables
    voigtw.eval_w_batch(FIRST_XS, FIRST_Y)
    setup_s = time.perf_counter() - start
    factor = speed.factor()
    print(json.dumps({
        "setup_s": setup_s,
        "tables_s": tables_s,
        "tables_found": get_tables is not None,
        "speed": factor,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
