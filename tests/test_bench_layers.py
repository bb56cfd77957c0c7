"""The traced benchmark finds every library name it wraps.

``perfbench/layers.py`` replaces module and class attributes of the package
by wrappers, where their callers look them up.  A refactor that drops or
moves one of those names still passes the rest of the suite and fails
only in a traced benchmark run, so this test runs the installer with a
tracer that checks each name instead of wrapping it.  A second test runs
it with the real tracer and checks that each scalar operation is counted
once, however the package routes it internally.  A third runs one pass of
every workload and judges each answer by the workload's own oracle, so a
name that a workload calls and a refactor moves fails here too.
"""

import importlib
import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


class NameCheckingTracer:
    def __init__(self):
        self.counts = Counter()
        self.wrapped = []

    def wrap(self, owner, attr, name, after=None):
        self.check(owner, attr, name)

    def wrap_hot(self, owner, attr, name):
        self.check(owner, attr, name)

    def check(self, owner, attr, name):
        assert attr in owner.__dict__, \
            f"{name}: {owner.__name__} has no attribute {attr!r} of its own"
        self.wrapped.append(name)


def load_library():
    modules = load_bench_module("workloads").MODULES
    return SimpleNamespace(**{
        name: importlib.import_module(f"ainfbench.{name}")
        for name in modules})


def test_traced_benchmark_finds_every_name_it_wraps():
    lib = load_library()
    tracer = NameCheckingTracer()
    load_bench_module("layers").install(tracer, lib)
    for name in ("linalg.kernel_coefficients", "hochschild.b_word",
                 "hochschild.cochain_differential", "mukai.z_x",
                 "splitgen.quotient_representatives"):
        assert name in tracer.wrapped


def test_traced_addsub_counts_each_operation_once():
    """``-``, reflected ``-`` and ``==`` are one addition each, like ``+``.

    Operands on different lattices (exponent denominators 2 and 3) are
    rescaled inside the operation, not by a second counted one.
    """
    lib = load_library()
    tracer = load_bench_module("tracing").Tracer()
    load_bench_module("layers").install(tracer, lib)
    try:
        Q = lib.novikov.Rationals()
        NS = lib.novikov.NovikovScalar
        x = NS.make(Q, 6, [(0, 2), (1, 3)])
        y = NS.make(Q, 6, [(0, 1), (2, -1)])
        x + y
        x - y
        1 - x
        x == y
        h = NS.make(Q, Fraction(11, 2), [(Fraction(1, 2), 1), (1, 2)])
        t = NS.make(Q, 6, [(Fraction(1, 3), 2), (1, -1)])
        assert (h.den, t.den) == (2, 3)
        h + t
        t - h
        h == t
        h * t
    finally:
        tracer.uninstall()
    assert tracer.calls["novikov.addsub"] == 7
    assert tracer.calls["novikov.mul"] == 1
    assert tracer.calls["novikov.invert"] == 0


WORKLOADS = ("clifford-homology", "splitgen-certificate", "mc-family",
             "lg-critical")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_of_each_workload_meets_its_oracles(workload):
    """Every operation of one seeded pass returns an answer its check
    accepts, or raises the known defect: the skew P1xP1 charts whose
    leading system is positive-dimensional, ten of them in ``lg-critical``.
    """
    workloads = load_bench_module("workloads")
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    lib = load_library()
    ops, _ = workloads.WORKLOADS[workload](lib, random.Random(5))
    defects = []
    for op in ops:
        try:
            out = op.run()
        except lib.errors.WorkbenchError as exc:
            if op.known_defect is None or not op.known_defect(exc):
                raise
            defects.append(op.name)
            continue
        assert op.check(out) is None, op.name
    if workload == "lg-critical":
        assert len(defects) == 10
        assert all(name.startswith("skew@") for name in defects)
    else:
        assert defects == []
