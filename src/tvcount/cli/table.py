"""tvcount table: the count of every admissible (d, a, b) with d <= N,
serially or in a pool of worker processes (TVCOUNT_THREADS)."""

import os

from . import COLUMNS, EXIT_INVALID, EXIT_OK, MAX_TABLE_D, _fail, _stderr


def _table_row(problem) -> tuple[int, ...]:
    from .. import counting

    return (*[getattr(problem, k) for k in COLUMNS], counting.degree_of_power_sum_locus(problem))


def _worker_cap(n_jobs: int) -> int:
    raw = os.environ.get("TVCOUNT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        _stderr(f"warning: ignoring non-integer TVCOUNT_THREADS={raw!r}")
        return 1
    return max(1, min(cap, n_jobs, _usable_cpus()))


def _usable_cpus() -> int:
    """The CPUs this process may run on; a pool starts all its workers at
    once, so it gets no more than these."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(args) -> int:
    if args.max_d > MAX_TABLE_D:
        return _fail(f"table --max-d {args.max_d} is above {MAX_TABLE_D}, the largest that table builds", EXIT_INVALID)
    from .. import counting

    try:
        problems = counting.admissible_tuples(args.max_d)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    rows = None
    workers = _worker_cap(len(problems)) if problems else 1
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            # about 4 chunks per worker: one pickle round trip per chunk, not
            # per row; map keeps the input order
            chunksize = -(-len(problems) // (4 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_table_row, problems, chunksize=chunksize))
        except OSError as exc:
            _stderr(f"warning: parallel evaluation unavailable ({exc}); running serially")
    if rows is None:
        rows = [_table_row(p) for p in problems]

    cells = [(*COLUMNS, "degree"), *(tuple(map(str, row)) for row in rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    for r in cells:
        # one print per line: an unbuffered stdout does not retry a short write
        print(",".join(r) if args.csv else "  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return EXIT_OK
