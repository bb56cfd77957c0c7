"""Benchmark of the ainfbench workbench: one exact computation at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload clifford-homology --seed 1 \
        --seconds 25 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one returns.  A pass runs every operation of the workload once;
passes repeat until ``--seconds`` is used up.  With ``--trace 0`` the
last line of standard output carries the end-to-end metrics; with
``--trace 1`` untraced passes are followed by traced ones and the last
line carries the per-layer metrics.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402
from workloads import CUTOFF, WORKLOADS, LibraryMissing, import_library  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
OUT_DIR = ROOT / ".perfbench"


def _cpu_now():
    """Process CPU time, all threads, plus that of waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(workload, seed):
    """Seconds for the library import plus fixture construction."""
    t0 = time.perf_counter()
    lib = import_library(ROOT)
    WORKLOADS[workload](lib, random.Random(seed))
    return time.perf_counter() - t0


def run_probe(workload, seed):
    """One set-up measurement in a fresh interpreter, waited for."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(out.stdout.split()[-1])


def reference():
    """A fixed computation shaped like the package's inner loops: Fraction
    products summed into a dict keyed by tuples.  Stdlib only, so no change
    to the package moves it."""
    x = Fraction(2, 3)
    acc = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i % 11 + 1, i % 7 + 1) * x
    return acc


def time_reference(calls):
    """Wall and CPU seconds per call of ``reference``, over ``calls`` calls
    timed as one block."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(calls):
        reference()
    return ((time.perf_counter() - wall0) / calls,
            (time.process_time() - cpu0) / calls)


def reference_calls(op_walls):
    """Calls of ``reference`` that last as long as the pass's typical
    operation, weighted by time, so both meet the host's fast spells alike."""
    typical = sum(t * t for t in op_walls) / sum(op_walls)
    one = min(time_reference(1)[0] for _ in range(3))
    return max(1, round(typical / one))


def fastest(rows):
    """Sum over operations of each operation's fastest time across passes."""
    return sum(min(col) for col in zip(*rows))


class Runner:
    """Runs passes and judges every answer against its oracle."""

    def __init__(self, workload, seed, ops, workbench_error):
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.workbench_error = workbench_error
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.defects = 0
        self.margins = []
        self.ref_calls = None
        self.ref_walls, self.ref_cpus = [], []
        self._reported = set()

    def one_pass(self, tracer=None):
        """Time each operation of one pass, then judge the answers."""
        results, walls, cpus = [], [], []
        for op in self.ops:
            wall0, cpu0 = time.perf_counter(), _cpu_now()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("op:" + op.name):
                        out = op.run()
                results.append((op, out, None))
            except Exception as exc:  # judged below, outside the clock
                results.append((op, None, exc))
            walls.append(time.perf_counter() - wall0)
            cpus.append(_cpu_now() - cpu0)
        for op, out, exc in results:
            self._judge(op, out, exc)
        return walls, cpus

    def _judge(self, op, out, exc):
        self.attempted += 1
        if exc is not None:
            detail = f"{type(exc).__name__}: {exc}"
            if op.known_defect is not None and op.known_defect(exc):
                self.defects += 1
                self._report("KNOWN-DEFECT", op, detail)
                return
            if not isinstance(exc, self.workbench_error):
                detail += "\n" + "".join(traceback.format_exception(exc))
            self.failed += 1
            self._report("FAIL", op, detail)
            return
        problem = op.check(out)
        if problem is not None:
            self.failed += 1
            self._report("FAIL", op, problem)
            return
        self.ok += 1
        margin = op.margin(out) if op.margin is not None else None
        if margin is not None:
            self.margins.append(margin)

    def _report(self, tag, op, detail):
        if (tag, op.name) not in self._reported:
            self._reported.add((tag, op.name))
            print(f"{tag} workload={self.workload} op={op.name} "
                  f"seed={self.seed}: {detail}", file=sys.stderr)

    def passes(self, seconds, tracer=None, after_pass=None):
        """Closed loop: passes until the next one would overrun ``seconds``.

        Returns per-pass rows of per-operation wall and CPU seconds.
        ``after_pass(elapsed)`` runs between passes, off the clock.
        """
        walls, cpus = [], []
        start = time.perf_counter()
        while True:
            wall, cpu = self.one_pass(tracer)
            walls.append(wall)
            cpus.append(cpu)
            if self.ref_calls is None:
                self.ref_calls = reference_calls(wall)
            ref_wall, ref_cpu = time_reference(self.ref_calls)
            self.ref_walls.append(ref_wall)
            self.ref_cpus.append(ref_cpu)
            elapsed = time.perf_counter() - start
            if after_pass is not None:
                after_pass(elapsed)
            if len(walls) >= MIN_PASSES and elapsed + sum(wall) > seconds:
                return walls, cpus


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, seconds):
    """Timed passes, with the set-up probes spread over the run.

    The host's speed drifts between levels for seconds at a time, often for
    a whole run, so raw times move with the neighbours' load.  Each
    operation's fastest repeat, summed over the pass, is divided by the
    fastest per-call time of ``reference``, timed once after every pass in
    blocks as long as a typical operation; the quotient cancels the speed
    the run happened to get.
    """
    probes = []

    def probe_when_due(elapsed):
        if (len(probes) < SETUP_PROBES
                and elapsed >= len(probes) * seconds / SETUP_PROBES):
            probes.append(run_probe(runner.workload, runner.seed))

    walls, cpus = runner.passes(seconds, after_pass=probe_when_due)
    while len(probes) < SETUP_PROBES:
        probes.append(run_probe(runner.workload, runner.seed))
    wall_s, cpu_s = fastest(walls), fastest(cpus)
    ref_wall, ref_cpu = min(runner.ref_walls), min(runner.ref_cpus)
    margin = min(runner.margins) if runner.margins else CUTOFF
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_ref": _metric(wall_s / ref_wall, "ref"),
        "cpu_ref": _metric(cpu_s / ref_cpu, "ref"),
        "setup_s": _metric(min(probes), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
        "ok_frac": _metric(runner.ok / runner.attempted, "ratio"),
        "min_margin": _metric(float(margin), "T-exponent"),
    }
    info = {"wall_s": wall_s, "cpu_s": cpu_s, "reference_wall_s": ref_wall,
            "reference_cpu_s": ref_cpu, "reference_calls": runner.ref_calls,
            "pass_wall_s": [sum(w) for w in walls],
            "pass_reference_wall_s": runner.ref_walls,
            "setup_probes_s": probes}
    return metrics, info


def per_layer(runner, lib, seconds, spans_path):
    """Untraced passes, then traced ones; per-layer metrics and overhead."""
    plain, _ = runner.passes(seconds / 3)
    tracer = Tracer()
    per_pass, last_spans = [], []

    def collect(elapsed):
        per_pass.append(layers.metrics(tracer))
        last_spans[:] = tracer.spans
        tracer.reset()

    layers.install(tracer, lib)
    try:
        traced, _ = runner.passes(seconds * 2 / 3, tracer, collect)
    finally:
        tracer.uninstall()
    for name, unit in layers.PER_LAYER.items():
        if unit == layers.COUNT and len({m[name] for m in per_pass}) != 1:
            raise RuntimeError(
                f"harness bug: count {name} differs between traced passes: "
                f"{[m[name] for m in per_pass]}")
    # each phase in reference units of its own passes, so that a change of
    # host speed between the phases does not read as overhead
    refs = runner.ref_walls[-len(plain) - len(traced):]
    plain_ref = fastest(plain) / min(refs[:len(plain)])
    traced_ref = fastest(traced) / min(refs[len(plain):])
    overhead = traced_ref - plain_ref
    metrics = {}
    for name, unit in layers.PER_LAYER.items():
        if name == "trace.overhead_ref":
            value = overhead
        elif unit == layers.COUNT:
            value = per_pass[0][name]
        else:
            value = min(m[name] for m in per_pass)
        metrics[name] = _metric(value, unit)
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(spans_path, last_spans)
    info = {"untraced_wall_s": fastest(plain),
            "traced_wall_s": fastest(traced),
            "untraced_wall_ref": plain_ref, "traced_wall_ref": traced_ref,
            "untraced_passes": len(plain), "traced_passes": len(traced),
            "spans": str(spans_path.relative_to(ROOT))}
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.probe_setup:
            print(probe_setup(args.workload, args.seed))
            return 0
        lib = import_library(ROOT)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops, params = WORKLOADS[args.workload](lib, random.Random(args.seed))
    runner = Runner(args.workload, args.seed, ops, lib.errors.WorkbenchError)
    meta = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "git_sha": _git_sha(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "params": params}
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, info = per_layer(runner, lib, args.seconds, spans_path)
        else:
            metrics, info = end_to_end(runner, args.seconds)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up probe failed:\n{exc.stderr}", file=sys.stderr)
        return 2
    meta.update(info, known_defects=runner.defects)
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
