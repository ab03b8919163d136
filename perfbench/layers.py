"""The traced layers of nullfoliate and the per-layer metrics built from spans.

Span names are "<module>.<function>"; the leading underscore of the private
modules _cheb and _wigner is dropped because metric names must start with
a letter.
"""

from tracer import NAME, OK, PARENT, START, END, TID, outermost, self_times

PACKAGE = "nullfoliate"


def targets():
    """Span name -> (owner, attribute) for every traced function."""
    from nullfoliate import (_cheb, _wigner, comparison, diagnostics,
                             geodesic, reports, solver, sphere, tensors)
    return {
        "sphere.raw_synthesize": (sphere, "raw_synthesize"),
        "sphere.raw_analyze": (sphere, "raw_analyze"),
        "sphere.multiply": (sphere, "multiply"),
        "sphere.interp_generator": (sphere, "interp_generator"),
        "cheb.barycentric_interp": (_cheb, "barycentric_interp"),
        "wigner.spin_lambda_tables": (_wigner, "spin_lambda_tables"),
        "tensors.invert_laplacian": (tensors, "invert_laplacian"),
        "solver.picard_window": (solver, "picard_window"),
        "solver.assemble_F": (solver, "assemble_F"),
        "solver.solve_lapse": (solver, "solve_lapse"),
        "solver.cumulative_integral": (solver, "cumulative_integral"),
        "solver.Foliation.save": (solver.Foliation, "save"),
        "solver.Foliation.load": (solver.Foliation, "load"),
        "geodesic.gen_minkowski": (geodesic, "gen_minkowski"),
        "geodesic.gen_schwarzschild": (geodesic, "gen_schwarzschild"),
        "geodesic.gen_manufactured": (geodesic, "gen_manufactured"),
        "geodesic.validate": (geodesic, "validate"),
        "geodesic.save": (geodesic, "save"),
        "geodesic.load": (geodesic, "load"),
        "comparison.reconstruct": (comparison, "reconstruct"),
        "diagnostics.constraint_residuals": (diagnostics,
                                             "constraint_residuals"),
        "diagnostics.transport_residuals": (diagnostics,
                                            "transport_residuals"),
        "diagnostics.norm_suite": (diagnostics, "norm_suite"),
        "reports.ResidualReport.to_csv": (reports.ResidualReport, "to_csv"),
        "reports.ResidualReport.to_json": (reports.ResidualReport, "to_json"),
        "reports.NormReport.to_csv": (reports.NormReport, "to_csv"),
        "reports.NormReport.to_json": (reports.NormReport, "to_json"),
    }


GENERATORS = ("geodesic.gen_minkowski", "geodesic.gen_schwarzschild",
              "geodesic.gen_manufactured")
REPORT_WRITERS = ("reports.ResidualReport.to_csv",
                  "reports.ResidualReport.to_json",
                  "reports.NormReport.to_csv", "reports.NormReport.to_json")
TRANSFORMS = ("sphere.raw_synthesize", "sphere.raw_analyze")

# metric name -> unit, in report order
UNITS = {
    "sphere.raw_synthesize.calls": "count",
    "sphere.raw_synthesize.self_s": "s",
    "sphere.raw_analyze.calls": "count",
    "sphere.raw_analyze.self_s": "s",
    "sphere.transform.padded_share": "ratio",
    "sphere.multiply.calls": "count",
    "sphere.multiply.self_s": "s",
    "sphere.interp_generator.calls": "count",
    "sphere.interp_generator.total_s": "s",
    "cheb.barycentric_interp.calls": "count",
    "cheb.barycentric_interp.total_s": "s",
    "wigner.spin_lambda_tables.calls": "count",
    "wigner.spin_lambda_tables.total_s": "s",
    "tensors.invert_laplacian.calls": "count",
    "tensors.invert_laplacian.total_s": "s",
    "solver.picard_window.attempts": "count",
    "solver.picard_window.accepted": "count",
    "solver.window_accept_ratio": "ratio",
    "solver.sweeps": "count",
    "solver.picard_window.self_s": "s",
    "solver.assemble_F.calls": "count",
    "solver.assemble_F.total_s": "s",
    "solver.solve_lapse.total_s": "s",
    "solver.cumulative_integral.total_s": "s",
    "solver.pool_busy_share": "ratio",
    "solver.Foliation.save.total_s": "s",
    "solver.Foliation.save.bytes": "B",
    "solver.Foliation.load.total_s": "s",
    "geodesic.generate.total_s": "s",
    "geodesic.validate.total_s": "s",
    "geodesic.save.total_s": "s",
    "geodesic.save.bytes": "B",
    "geodesic.load.total_s": "s",
    "comparison.reconstruct.calls": "count",
    "comparison.reconstruct.total_s": "s",
    "comparison.reconstruct.per_level": "ratio",
    "diagnostics.constraint_residuals.total_s": "s",
    "diagnostics.transport_residuals.total_s": "s",
    "diagnostics.norm_suite.total_s": "s",
    "reports.write.total_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(traces, facts):
    """Per-layer metrics of one traced pipeline.

    `traces` holds one {"main_thread": id, "spans": [...]} record per traced
    child process (generate and every stage).  `facts` supplies what the
    spans cannot: Picard sweeps, foliation levels, the solve's thread
    count, bytes written by the two savers and the tracing overhead.
    """
    calls, total, self_s = {}, {}, {}
    padded = transforms = 0
    worker_busy = 0.0
    accepted = 0
    for trace in traces:
        spans = [tuple(sp) for sp in trace["spans"]]
        by_id = {sp[0]: sp for sp in spans}
        selfs = self_times(spans)
        for sp in spans:
            name = sp[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[sp[0]]
            if name in TRANSFORMS:
                transforms += 1
                parent = by_id.get(sp[PARENT])
                if parent is not None and parent[NAME] == "sphere.multiply":
                    padded += 1
            if name == "solver.picard_window" and sp[OK]:
                accepted += 1
            if sp[TID] != trace["main_thread"] and sp[PARENT] is None:
                worker_busy += sp[END] - sp[START]
        for sp in outermost(spans):
            total[sp[NAME]] = total.get(sp[NAME], 0.0) + sp[END] - sp[START]

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(total.get(name, 0.0) for name in names)

    attempts = n("solver.picard_window")
    window_wall = t("solver.picard_window")
    reconstructs = n("comparison.reconstruct")
    out = {
        "sphere.raw_synthesize.calls": n("sphere.raw_synthesize"),
        "sphere.raw_synthesize.self_s": self_s.get("sphere.raw_synthesize", 0.0),
        "sphere.raw_analyze.calls": n("sphere.raw_analyze"),
        "sphere.raw_analyze.self_s": self_s.get("sphere.raw_analyze", 0.0),
        "sphere.transform.padded_share": padded / transforms if transforms else 0.0,
        "sphere.multiply.calls": n("sphere.multiply"),
        "sphere.multiply.self_s": self_s.get("sphere.multiply", 0.0),
        "sphere.interp_generator.calls": n("sphere.interp_generator"),
        "sphere.interp_generator.total_s": t("sphere.interp_generator"),
        "cheb.barycentric_interp.calls": n("cheb.barycentric_interp"),
        "cheb.barycentric_interp.total_s": t("cheb.barycentric_interp"),
        "wigner.spin_lambda_tables.calls": n("wigner.spin_lambda_tables"),
        "wigner.spin_lambda_tables.total_s": t("wigner.spin_lambda_tables"),
        "tensors.invert_laplacian.calls": n("tensors.invert_laplacian"),
        "tensors.invert_laplacian.total_s": t("tensors.invert_laplacian"),
        "solver.picard_window.attempts": attempts,
        "solver.picard_window.accepted": accepted,
        "solver.window_accept_ratio": accepted / attempts if attempts else 0.0,
        "solver.sweeps": facts["sweeps"],
        "solver.picard_window.self_s": self_s.get("solver.picard_window", 0.0),
        "solver.assemble_F.calls": n("solver.assemble_F"),
        "solver.assemble_F.total_s": t("solver.assemble_F"),
        "solver.solve_lapse.total_s": t("solver.solve_lapse"),
        "solver.cumulative_integral.total_s": t("solver.cumulative_integral"),
        "solver.pool_busy_share": (worker_busy / (facts["threads"] * window_wall)
                                   if window_wall else 0.0),
        "solver.Foliation.save.total_s": t("solver.Foliation.save"),
        "solver.Foliation.save.bytes": facts["foliation_bytes"],
        "solver.Foliation.load.total_s": t("solver.Foliation.load"),
        "geodesic.generate.total_s": t(*GENERATORS),
        "geodesic.validate.total_s": t("geodesic.validate"),
        "geodesic.save.total_s": t("geodesic.save"),
        "geodesic.save.bytes": facts["dataset_bytes"],
        "geodesic.load.total_s": t("geodesic.load"),
        "comparison.reconstruct.calls": reconstructs,
        "comparison.reconstruct.total_s": t("comparison.reconstruct"),
        "comparison.reconstruct.per_level": reconstructs / facts["levels"],
        "diagnostics.constraint_residuals.total_s":
            t("diagnostics.constraint_residuals"),
        "diagnostics.transport_residuals.total_s":
            t("diagnostics.transport_residuals"),
        "diagnostics.norm_suite.total_s": t("diagnostics.norm_suite"),
        "reports.write.total_s": t(*REPORT_WRITERS),
        "trace.overhead_s": facts["overhead_s"],
    }
    return out
