"""Span checks and per-layer metrics from the traced jobs' spans.

A span is [name, start, end, parent, job_id, peak_kb] as written by
``trace_job.py``. A span's self time is its duration minus the durations of
its children; children of one parent must nest inside it and must not
overlap, so the self times of a job's spans add up to its root span.
"""
from __future__ import annotations

from collections import defaultdict

# per-layer time metric -> span names whose self times it sums
SELF_TIME = {
    "io.load_s": ("io.load_matrix", "io.load_dag", "io.load_graph"),
    "io.emit_s": ("io.canonical_json",),
    "boolmat.serialize_s": (
        "boolmat.WitnessMatrix.to_json_dict",
        "boolmat.WitnessMatrix.from_json_dict",
        "boolmat.WitnessMatrix.to_csv_rows",
        "boolmat.WitnessLists.to_json_dict",
    ),
    "boolmat.violations_s": ("boolmat.witness_violations",),
    "boolmat.oracle_s": ("boolmat.max_witness_oracle",),
    "boolmat.pack_s": ("boolmat.BoolMatrix.to_dense", "boolmat.BoolMatrix.from_dense", "boolmat.transpose"),
    "boolmat.product_s": ("boolmat.bool_product",),
    "witness.strips_s": ("witness.exact_max_witness_strips",),
    "witness.strip_table_s": ("witness.largest_nonzero_strip",),
    "witness.sampling_s": ("witness._collect_witnesses",),
    "witness.solve_s": (
        "witness.k_witness",
        "witness.approx_rank_bounded",
        "witness.approx_multiwitness",
        "witness.approx_multiwitness_boosted",
    ),
    "witness.rank_check_s": ("witness.witness_rank_matrix",),
    "qsim.search_s": ("qsim.algorithm1", "qsim.algorithm2", "qsim.algorithm3", "qsim.algorithm4"),
    "qsim.scalar_s": ("qsim.durr_hoyer_min",),
    "qsim.tables_s": ("qsim.table_values", "qsim.VirtualMinTable.from_values"),
    "graphs.brute_force_s": (
        "graphs.brute_force_heaviest_triangles",
        "graphs.brute_force_two_edge_paths",
    ),
    "graphs.reduce_s": (
        "graphs.all_pairs_lca",
        "graphs.lca_matrix",
        "graphs.heaviest_triangle_per_edge",
        "graphs.max_weight_two_edge_paths",
        "graphs.Dag.ancestor_bitsets",
        "graphs.Dag.descendant_bitsets",
        "graphs.VertexWeightedGraph.adjacency",
    ),
    "cli.self_s": ("cli.load", "cli.solve", "cli.verify", "cli.emit"),
}
# stage metric -> stage span whose whole duration it sums (the --timing names)
STAGE_TIME = {"cli.load_s": "cli.load", "cli.solve_s": "cli.solve",
              "cli.verify_s": "cli.verify", "cli.emit_s": "cli.emit"}
STAGE_METRIC = {span: metric for metric, span in STAGE_TIME.items()}
PEAK_LAYERS = ("io", "boolmat", "witness", "qsim", "graphs", "cli")
TIMING_KEYS = {"load_s": "cli.load", "solve_s": "cli.solve", "verify_s": "cli.verify"}


def self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that are unclosed, leave their parent, or overlap a sibling."""
    errors = []
    last_end: dict[int, float] = {}
    for idx, (name, start, end, parent, _job, _peak) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"{name}#{idx} is not closed properly")
            continue
        if parent >= 0:
            p = spans[parent]
            if parent >= idx or start < p[1] or (p[2] is not None and end > p[2]):
                errors.append(f"{name}#{idx} leaves its parent {p[0]}#{parent}")
            if start < last_end.get(parent, start):
                errors.append(f"{name}#{idx} overlaps an earlier sibling")
            last_end[parent] = end
        elif idx != 0:
            errors.append(f"{name}#{idx} is a second root")
    return errors


def check_job(trace: dict, wall_s: float, report_timing: dict | None) -> list[str]:
    """The tracer's own invariants for one job; returns a list of problems."""
    spans = trace["spans"]
    if not spans:
        return ["no spans recorded"]
    errors = nesting_errors(spans)
    if errors:
        return errors
    own = self_times(spans)
    root = spans[0][2] - spans[0][1]
    if abs(sum(own) - root) > 1e-6:
        errors.append(f"self times sum to {sum(own):.9f}s, root span is {root:.9f}s")
    if root > wall_s:
        errors.append(f"root span {root:.6f}s exceeds the job's wall time {wall_s:.6f}s")
    if report_timing is not None:
        dur = {s[0]: s[2] - s[1] for s in spans if s[0] in TIMING_KEYS.values()}
        for key, stage in TIMING_KEYS.items():
            if abs(report_timing[key] - round(dur.get(stage, -1.0), 6)) > 1.5e-6:
                errors.append(f"{stage} span {dur.get(stage)} != report timing {key}={report_timing[key]}")
    return errors


def layer_metrics(traces: list[dict], job_walls: list[float]) -> dict[str, float]:
    """Per-layer totals over all jobs of a traced pass."""
    totals: dict[str, float] = defaultdict(float)
    by_name = {n: m for m, names in SELF_TIME.items() for n in names}
    peaks = dict.fromkeys(PEAK_LAYERS, 0)
    search_q = scalar_q = 0
    for trace, wall in zip(traces, job_walls):
        spans = trace["spans"]
        if not spans:  # the job failed before tracing began; it is counted as failed
            continue
        own = self_times(spans)
        for s, t in zip(spans, own):
            if s[0] in by_name:
                totals[by_name[s[0]]] += t
            layer = s[0].split(".", 1)[0]
            if layer in peaks:
                peaks[layer] = max(peaks[layer], s[5])
            if s[0] in STAGE_METRIC:
                totals[STAGE_METRIC[s[0]]] += s[2] - s[1]
        # process start, imports, argument parsing and exit: outside every layer span
        totals["trace.remainder_s"] += wall - (spans[0][2] - spans[0][1]) + own[0]
        search_q += trace["queries"]["search"]
        scalar_q += trace["queries"]["scalar"]
    out = {m: totals.get(m, 0.0) for m in (*SELF_TIME, *STAGE_TIME, "trace.remainder_s")}
    out.update({f"{layer}.peak_mb": kb / 1024 for layer, kb in peaks.items()})
    out["qsim.queries"] = search_q + scalar_q
    out["qsim.queries_per_s"] = search_q / out["qsim.search_s"] if out["qsim.search_s"] else 0.0
    return out
