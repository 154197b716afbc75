"""Run one benchmark op in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<spec json>'``, started by ``run.py``
with ``src`` on ``PYTHONPATH``.  The spec holds ``argv`` (the hochcat
command line, or null to only import), ``mode`` (``plain``, ``trace`` or
``memory``), ``out`` (file for the op's captured stdout), ``spans`` (file for
the recorded spans) and ``src`` (where hochcat must be imported from).

The child times ``import hochcat.cli`` before it imports anything else, then
times ``cli.main(argv)`` with stdout captured, and prints one JSON line:
import and op seconds, exit code, peak RSS, interpreter and kernel backend,
and, in the plain mode, the times ``calib.reference()`` took just before
and just after the op.
"""

import sys
import time

_t0 = time.perf_counter()
import hochcat.cli  # noqa: E402  (timed: the set-up every CLI call pays)
IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def _time_reference() -> float:
    import calib
    start = time.perf_counter()
    calib.reference()
    return time.perf_counter() - start


def main(spec: dict) -> None:
    origin = os.path.realpath(hochcat.cli.__file__)
    if not origin.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"hochcat was imported from {origin}, not from {spec['src']}")
    kernels = sys.modules.get("hochcat.kernels")
    report = {
        "import_s": IMPORT_S,
        "python": platform.python_version(),
        "backend": getattr(kernels, "BACKEND", "none"),
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["mode"] != "plain":
            import spans
            tracer = spans.Tracer(memory=spec["mode"] == "memory")
            report["patched"] = spans.install(tracer)
        if spec["mode"] == "plain":
            report["ref_s"] = [_time_reference()]
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = hochcat.cli.main(spec["argv"])
        report["op_s"] = time.perf_counter() - start
        report["rc"] = rc
        if spec["mode"] == "plain":
            report["ref_s"].append(_time_reference())
        with open(spec["out"], "w", encoding="utf-8") as fh:
            fh.write(captured.getvalue())
        if tracer is not None:
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh, separators=(",", ":"))
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
