"""Which library names the traced run wraps, and the per-layer metrics.

Names are wrapped where their callers look them up: ``splitgen`` imports
``homology``, ``z_x`` and ``solve_combination`` by name, ``hochschild``
imports the elimination entry points by name, so those module attributes are
wrapped rather than the defining ones.
"""

from __future__ import annotations

COUNT, SECONDS, RATIO = "count", "s", "ratio"

PER_LAYER = {
    "novikov.mul_calls": COUNT,
    "novikov.addsub_calls": COUNT,
    "novikov.invert_calls": COUNT,
    "novikov.self_s": SECONDS,
    "linalg.rows_inserted": COUNT,
    "linalg.pivots": COUNT,
    "linalg.pivot_yield": RATIO,
    "linalg.blocks": COUNT,
    "linalg.max_block_rows": COUNT,
    "linalg.self_s": SECONDS,
    "hochschild.b_word_calls": COUNT,
    "hochschild.boundary_nnz": COUNT,
    "hochschild.cochain_diff_calls": COUNT,
    "hochschild.assembly_s": SECONDS,
    "hochschild.homology_calls": COUNT,
    "hochschild.homology_self_s": SECONDS,
    "ainfinity.family_build_s": SECONDS,
    "ainfinity.check_s": SECONDS,
    "ainfinity.op_entries": COUNT,
    "graded.add_entry_calls": COUNT,
    "ainfinity.entry_yield": RATIO,
    "splitgen.basis_s": SECONDS,
    "splitgen.solve_s": SECONDS,
    "mukai.z_x_calls": COUNT,
    "mukai.z_x_s": SECONDS,
    "potential.critical_points_calls": COUNT,
    "potential.points": COUNT,
    "potential.base_changes": COUNT,
    "potential.degenerate_roots": COUNT,
    "potential.critical_points_s": SECONDS,
    "potential.pipeline_s": SECONDS,
    "trace.overhead_ref": "ref",
}

SCALAR_METHODS = (
    ("__mul__", "novikov.mul"), ("__rmul__", "novikov.mul"),
    ("__add__", "novikov.addsub"), ("__radd__", "novikov.addsub"),
    ("__sub__", "novikov.addsub"), ("__rsub__", "novikov.addsub"),
    ("invert", "novikov.invert"),
)
LINALG_SPANS = ("linalg.insert", "linalg.reduce", "linalg.partition_rows",
                "linalg.blocked_rank", "linalg.kernel_coefficients",
                "linalg.quotient_representatives",
                "splitgen.quotient_representatives",
                "splitgen.solve_combination")


def install(tracer, lib):
    counts = tracer.counts

    def pivot(out, args):
        if out[0] is not None:
            counts["linalg.pivots"] += 1

    def blocks(out, args):
        counts["linalg.blocks"] += len(out)
        for grp in out:
            counts["linalg.max_block_rows"] = max(
                counts["linalg.max_block_rows"], len(grp))

    def column_nnz(out, args):
        counts["hochschild.boundary_nnz"] += len(out)

    def cochain_nnz(out, args):
        counts["hochschild.boundary_nnz"] += sum(
            len(outs) for outs in out.table.values())

    def op_entries(out, args):
        counts["ainfinity.op_entries"] += sum(
            len(row) for m in out[0].ops.values() for row in m.table.values())

    def points(out, args):
        counts["potential.points"] += len(out)
        counts["potential.base_changes"] += sum(
            1 for p in out if p.value.field != args[0].field)

    def degenerate(out, args):
        counts["potential.degenerate_roots"] += out.total - len(out.points)

    for attr, name in SCALAR_METHODS:
        tracer.wrap_hot(lib.novikov.NovikovScalar, attr, name)
    tracer.wrap_hot(lib.graded.MultilinearMap, "add_entry", "graded.add_entry")

    elim = lib.linalg.Eliminator
    tracer.wrap(elim, "insert", "linalg.insert", after=pivot)
    tracer.wrap(elim, "reduce", "linalg.reduce")
    tracer.wrap(lib.linalg, "partition_rows", "linalg.partition_rows",
                after=blocks)
    for fn in ("blocked_rank", "kernel_coefficients",
               "quotient_representatives"):
        tracer.wrap(lib.hochschild, fn, f"linalg.{fn}")

    H = lib.hochschild
    tracer.wrap(H, "b_word", "hochschild.b_word", after=column_nnz)
    tracer.wrap(H, "cochain_differential", "hochschild.cochain_differential",
                after=cochain_nnz)
    tracer.wrap(H, "homology", "hochschild.homology")

    S = lib.splitgen
    tracer.wrap(S, "homology", "splitgen.homology")
    tracer.wrap(S, "z_x", "mukai.z_x")
    tracer.wrap(S, "solve_combination", "splitgen.solve_combination")
    tracer.wrap(S, "quotient_representatives",
                "splitgen.quotient_representatives")

    A = lib.ainfinity
    tracer.wrap(A, "mc_family_category", "ainfinity.mc_family_category",
                after=op_entries)
    tracer.wrap(A, "deform_by_mc", "ainfinity.deform_by_mc", after=op_entries)
    tracer.wrap(A, "check_ainf", "ainfinity.check_ainf")
    tracer.wrap(A, "check_unital", "ainfinity.check_unital")

    P = lib.potential
    tracer.wrap(P, "critical_points", "potential.critical_points",
                after=points)
    tracer.wrap(P, "morse_count_check", "potential.morse_count_check",
                after=degenerate)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer):
    """Per-layer metrics of one traced pass (without the overhead)."""
    calls, counts = tracer.calls, tracer.counts
    self_s, total_s = tracer.self_s, tracer.total_s
    m = {
        "novikov.mul_calls": calls["novikov.mul"],
        "novikov.addsub_calls": calls["novikov.addsub"],
        "novikov.invert_calls": calls["novikov.invert"],
        "novikov.self_s": sum(self_s[n] for n in (
            "novikov.mul", "novikov.addsub", "novikov.invert")),
        "linalg.rows_inserted": calls["linalg.insert"],
        "linalg.pivots": counts["linalg.pivots"],
        "linalg.blocks": counts["linalg.blocks"],
        "linalg.max_block_rows": counts["linalg.max_block_rows"],
        "linalg.self_s": sum(self_s[n] for n in LINALG_SPANS),
        "hochschild.b_word_calls": calls["hochschild.b_word"],
        "hochschild.boundary_nnz": counts["hochschild.boundary_nnz"],
        "hochschild.cochain_diff_calls":
            calls["hochschild.cochain_differential"],
        "hochschild.assembly_s": self_s["hochschild.b_word"]
            + self_s["hochschild.cochain_differential"],
        "hochschild.homology_calls": calls["hochschild.homology"]
            + calls["splitgen.homology"],
        "hochschild.homology_self_s": self_s["hochschild.homology"]
            + self_s["splitgen.homology"],
        "ainfinity.family_build_s": total_s["ainfinity.mc_family_category"]
            + total_s["ainfinity.deform_by_mc"],
        "ainfinity.check_s": total_s["ainfinity.check_ainf"]
            + total_s["ainfinity.check_unital"],
        "ainfinity.op_entries": counts["ainfinity.op_entries"],
        "graded.add_entry_calls": calls["graded.add_entry"],
        "splitgen.basis_s": total_s["splitgen.homology"],
        "splitgen.solve_s": total_s["splitgen.solve_combination"],
        "mukai.z_x_calls": calls["mukai.z_x"],
        "mukai.z_x_s": total_s["mukai.z_x"],
        "potential.critical_points_calls": calls["potential.critical_points"],
        "potential.points": counts["potential.points"],
        "potential.base_changes": counts["potential.base_changes"],
        "potential.degenerate_roots": counts["potential.degenerate_roots"],
        "potential.critical_points_s": total_s["potential.critical_points"],
        "potential.pipeline_s": total_s["op:p1-pipeline"],
    }
    m["linalg.pivot_yield"] = _ratio(m["linalg.pivots"],
                                     m["linalg.rows_inserted"])
    m["ainfinity.entry_yield"] = _ratio(m["ainfinity.op_entries"],
                                        m["graded.add_entry_calls"])
    return m
