"""One fresh-interpreter ``twoselmer`` CLI invocation, as a user would run it.

Usage: python3 bench/scan_child.py '<json spec>'

The spec names the checkout's ``src`` directory, the CLI argv, a report
path, and whether to trace.  The child measures its own package import,
times each twist as the CLI's scan loop receives it, and writes a JSON
report (and, when traced, its spans) before exiting with the CLI's code.
With ``"import_only": true`` it only imports the package and reports that.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import twoselmer.cli as cli

    report = {"import_s": time.perf_counter() - t0}
    if spec.get("import_only"):
        return write(spec, report, 0)

    tracer = None
    if spec["trace"]:
        import twoselmer
        from spans import Tracer

        tracer = Tracer()
        tracer.install(twoselmer)

    clock = time.perf_counter
    latencies: list[float] = []
    records = cli.scan_records

    def timed_records(*args, **kwargs):
        # Each interval runs from one record reaching the CLI loop to the
        # next, so it covers the twist's descent and the CLI writing it.
        it = records(*args, **kwargs)
        t = clock()
        while True:
            if tracer is not None:
                tracer.op += 1
            try:
                rec = next(it)
            except StopIteration:
                return
            now = clock()
            latencies.append(now - t)
            t = now
            yield rec

    cli.scan_records = timed_records
    rc = cli.main(spec["argv"])
    report["latencies_s"] = latencies
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.aggregate()
        tracer.write(spec["spans"])
    return write(spec, report, rc)


def write(spec: dict, report: dict, rc: int) -> int:
    report["rc"] = rc
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
