"""End-to-end benchmark of the hochcat command line.

Usage::

    python3 perfbench/run.py --workload hh-dims --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The benchmark writes its category files
from ``--seed`` (``gen.py``, the next relabeling each pass), then runs the
workload's fixed op list (``workloads.py``) pass after pass.  Each op is one
call of ``hochcat.cli.main(argv)`` in a fresh interpreter (``child.py``): a
closed loop with a single client, never more than one child alive.  A fresh
interpreter per op is what a CLI user pays, and it keeps the program's
process-wide caches from answering a repeated op.

Every op's JSON is checked against the expected answer and must be
byte-identical to its earlier repeats in the run; an op that exits nonzero
or runs past ``OP_CEILING_S`` fails.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures for ``--seconds`` (at least two passes) and reports
the end-to-end metrics:

* ``setup_s``: median over the run's children of ``import hochcat.cli``;
* ``ops_per_s``: ops in the list / sum over the list of each op's median
  time in the run;
* ``op_p50_s``: median op time (the sample count is printed);
* ``peak_rss_mib``: largest ``ru_maxrss`` of any child.

Every child also times ``calib.reference()``, a fixed workload that does not
use hochcat, just before and just after its op.  The reported times are
rescaled to a machine on which the reference takes ``REFERENCE_S``, which
cancels most of a shared machine's drift in speed; the wall-clock medians
are printed beside them.  The harness and its children keep to one CPU, so
that the reference and the op run on the same one.

``fail_frac`` (failed / attempted) is printed above the result line.

``--trace 1`` runs one untraced pass, one pass with spans around the
program's public functions (``spans.py``) and one with tracemalloc, and
reports the per-layer metrics.  It fails when a layer the workload must use
records no call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gen
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

OP_CEILING_S = 60.0     # an op slower than this fails
# A child of a traced pass may run this long before it is stopped.  The
# ceiling above applies to the untraced op time: tracemalloc alone makes
# `fad a5`, 3-4 s untraced, take 55-70 s on a 2-vCPU VM.
INSTRUMENTED_LIMIT_S = 110.0
RUN_LIMIT_S = 140.0     # no pass starts that would end after this
MIN_PASSES = 2          # byte-identity needs a repeat of every op
REFERENCE_S = 0.1       # calib.reference() time that the reported times assume

# name -> unit of every end-to-end metric, in report order
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "peak_rss_mib": "MiB"}


def child_env() -> dict:
    """The caller's environment without HOCHCAT_* and PYTHON* settings,
    so a cap, a forced kernel or an interpreter flag cannot leak in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("HOCHCAT_", "PYTHON"))}
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs ops in child interpreters and checks their outputs."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = child_env()
        self.digests: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.info: dict = {}

    def spawn(self, argv, mode="plain") -> dict:
        spec = {
            "argv": argv,
            "mode": mode,
            "out": os.path.join(self.workdir, "out.json"),
            "spans": os.path.join(self.workdir, "spans.json"),
            "src": SRC,
        }
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, json.dumps(spec)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=OP_CEILING_S + 30 if mode == "plain" else INSTRUMENTED_LIMIT_S,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"child stopped after running too long in the {mode} pass"}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"child exited {proc.returncode}: {tail[0]}"}
        lines = proc.stdout.splitlines()
        if not lines:
            return {"error": "child printed no report"}
        report = json.loads(lines[-1])
        self.info = {"python": report["python"], "backend": report["backend"]}
        return report

    def run_op(self, index: int, op, argv, mode="plain") -> dict:
        self.attempted += 1
        record = self.spawn(argv, mode)
        error = record.get("error")
        if error is None and record["rc"] != 0:
            error = f"exit code {record['rc']}"
        if error is None and mode == "plain" and record["op_s"] > OP_CEILING_S:
            error = f"op took {record['op_s']:.1f} s, over the {OP_CEILING_S:.0f} s ceiling"
        if error is None:
            with open(os.path.join(self.workdir, "out.json"), "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            record["sha256"] = digest
            first = self.digests.setdefault(index, digest)
            if digest != first:
                error = "output differs from an earlier repeat"
            else:
                error = workloads.check_output(op, data.decode("utf-8"))
        if error is None and mode != "plain":
            with open(os.path.join(self.workdir, "spans.json"), encoding="utf-8") as fh:
                record["trace"] = spans.op_summary(json.load(fh), record["op_s"])
        if error is not None:
            self.failures.append(f"op {index + 1} ({op.label}): {error}")
            record["error"] = error
        return record


def run_passes(runner, ops, inputs, seed, seconds) -> list:
    """Whole passes over the op list until ``seconds`` would be exceeded.
    Pass ``p`` reads relabeling ``p``, except for ``workloads.LABELLED`` verbs."""
    records = []
    start = time.perf_counter()
    passes = 0
    first = None
    while True:
        pass_start = time.perf_counter()
        paths = gen.write_inputs(os.path.join(inputs, f"relabel{passes}"), seed, passes)
        first = first or paths
        for i, op in enumerate(ops):
            argv = op.argv(first if op.verb in workloads.LABELLED else paths)
            records.append((i, runner.run_op(i, op, argv)))
        passes += 1
        now = time.perf_counter()
        projected = now - start + (now - pass_start)
        if passes >= MIN_PASSES and (projected > seconds or projected > RUN_LIMIT_S):
            return records


def calibrated(seconds: float, ref_s: float) -> float:
    """``seconds`` measured in a child whose ``calib.reference()`` took
    ``ref_s``, rescaled to a machine on which it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / ref_s


def end_to_end(runner, ops, records) -> dict:
    ok = [r for _, r in records if "error" not in r]
    if not ok:
        return {}
    # each op against the mean of the references timed just before and just
    # after it in the same child, and the import against the one before
    for r in ok:
        r["calibrated_s"] = calibrated(r["op_s"], statistics.mean(r["ref_s"]))
    op_times = [r["calibrated_s"] for r in ok]
    imports = [calibrated(r["import_s"], r["ref_s"][0]) for r in ok]
    medians = []
    for i, op in enumerate(ops):
        mine = [r for j, r in records if j == i and "error" not in r]
        if mine:
            medians.append(statistics.median(r["calibrated_s"] for r in mine))
            print(f"op {i + 1} {op.label}: n={len(mine)} p50={medians[-1]:.3f}s "
                  f"wall_p50={statistics.median(r['op_s'] for r in mine):.3f}s "
                  f"rss={max(r['maxrss_kib'] for r in mine) / 1024:.0f}MiB "
                  f"sha256={mine[0]['sha256']}")
    speed = REFERENCE_S / statistics.median(x for r in ok for x in r["ref_s"])
    print(f"machine speed {speed:.3f} x the reference's "
          f"({REFERENCE_S:g} s for calib.reference()); wall-clock "
          f"op_p50 {statistics.median(r['op_s'] for r in ok):.4g} s, "
          f"setup {statistics.median(r['import_s'] for r in ok):.4g} s")
    values = {
        "setup_s": statistics.median(imports),
        # one pass over the op list, each op at its median time: a slow
        # moment of a shared machine moves this less than a plain sum would
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_s": statistics.median(op_times),
        "peak_rss_mib": max(r["maxrss_kib"] for r in ok) / 1024,
    }
    for name, unit in END_TO_END.items():
        note = f" (n={len(op_times)})" if name == "op_p50_s" else ""
        print(f"{name:<14} {values[name]:.6g} {unit}{note}")
    failed = len(runner.failures)
    print(f"{'fail_frac':<14} {failed / runner.attempted:.6g} ratio ({failed}/{runner.attempted})")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(runner, name, ops, paths, problems) -> dict:
    passes = {}
    for mode in ("plain", "trace", "memory"):
        passes[mode] = [runner.run_op(i, op, op.argv(paths), mode) for i, op in enumerate(ops)]
    if runner.failures:
        return {}
    untraced_s = sum(r["op_s"] for r in passes["plain"])
    values = spans.layer_metrics([r["trace"] for r in passes["trace"]],
                                 [r["trace"] for r in passes["memory"]], untraced_s)
    patched = passes["trace"][0]["patched"]
    absent = sorted(label for label, n in patched.items() if n == 0)
    if absent:
        print("targets the program no longer has: " + ", ".join(absent))
    for group in workloads.USED[name]:
        if values[f"{group}_calls"] == 0:
            problems.append(f"layer {group} recorded no calls")
    for group in workloads.IDLE[name]:
        calls = values[f"{group}_calls"]
        print(f"design: {group} expected idle, {calls} calls"
              + ("" if calls == 0 else " (differs from the workload design)"))
    slack = max(values["trace.overhead"] - 1.0, 0.01)
    if values["trace.unattributed_frac"] > slack:
        problems.append(
            f"self times leave {values['trace.unattributed_frac']:.3%} of an op unattributed")
    for metric, unit in spans.METRICS.items():
        print(f"{metric:<32} {values[metric]:.6g} {unit}")
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in spans.METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "hochcat", "cli.py")):
        print(f"error: no hochcat sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the harness and every child, so that the reference timed in
    # a child measures the CPU its op ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir)
        problems: list = []
        warm = runner.spawn(None)          # compiles bytecode; not measured
        if "error" in warm:
            print(f"error: cannot import hochcat: {warm['error']}", file=sys.stderr)
            return 1
        ops = workloads.WORKLOADS[args.workload]
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} python={runner.info['python']} backend={runner.info['backend']}")
        if args.trace:
            paths = gen.write_inputs(os.path.join(workdir, "inputs"), args.seed)
            metrics = per_layer(runner, args.workload, ops, paths, problems)
        else:
            records = run_passes(runner, ops, os.path.join(workdir, "inputs"), args.seed,
                                 args.seconds)
            metrics = end_to_end(runner, ops, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in runner.failures + problems:
        print(f"FAIL {failure}")
    result = {
        "correct": not (runner.failures or problems),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
