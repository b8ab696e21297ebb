"""Run one maxwit CLI job with spans around the package's public functions.

Usage: python trace_job.py SPANS_OUT JOB_ID CLI_ARG...

The job is the same ``maxwit.cli.main`` call an untraced job makes. Before
the call, every traced function is replaced by a wrapper in each maxwit
module that binds it (``maxwit.cli.max_witness_oracle``,
``maxwit.qsim.largest_nonzero_strip``, ...) and on its class for methods.
``maxwit.cli.time`` is replaced by a clock whose ``perf_counter`` calls mark
the handler's own stage boundaries, so the stage spans ``cli.load``,
``cli.solve`` and ``cli.verify`` are exactly the intervals ``--timing``
reports; ``cli.emit`` runs from the last mark until ``main`` returns.
``verify`` and ``campaign`` take no marks: their whole ``main`` call is one
``cli.verify`` or ``cli.solve`` span.

Each span is (name, start, end, parent, job id, peak_kb). ``peak_kb`` is the
process's peak RSS at a moment when it rose while this span was innermost
(0 if it never rose then). Spans are held in memory and written as JSON when
the job ends, with the query counts seen at the ``qsim`` boundaries.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import maxwit.cli  # noqa: E402
from maxwit import boolmat, graphs, io, qsim, witness  # noqa: E402

# span name -> (owner, attribute); owner is a module or a class
TRACED = {
    "io.load_matrix": (io, "load_matrix"),
    "io.load_dag": (io, "load_dag"),
    "io.load_graph": (io, "load_graph"),
    "io.canonical_json": (io, "canonical_json"),
    "boolmat.bool_product": (boolmat, "bool_product"),
    "boolmat.transpose": (boolmat, "transpose"),
    "boolmat.max_witness_oracle": (boolmat, "max_witness_oracle"),
    "boolmat.witness_violations": (boolmat, "witness_violations"),
    "boolmat.BoolMatrix.to_dense": (boolmat.BoolMatrix, "to_dense"),
    "boolmat.BoolMatrix.from_dense": (boolmat.BoolMatrix, "from_dense"),
    "boolmat.WitnessMatrix.to_json_dict": (boolmat.WitnessMatrix, "to_json_dict"),
    "boolmat.WitnessMatrix.from_json_dict": (boolmat.WitnessMatrix, "from_json_dict"),
    "boolmat.WitnessMatrix.to_csv_rows": (boolmat.WitnessMatrix, "to_csv_rows"),
    "boolmat.WitnessLists.to_json_dict": (boolmat.WitnessLists, "to_json_dict"),
    "witness.largest_nonzero_strip": (witness, "largest_nonzero_strip"),
    "witness.exact_max_witness_strips": (witness, "exact_max_witness_strips"),
    "witness._collect_witnesses": (witness, "_collect_witnesses"),
    "witness.k_witness": (witness, "k_witness"),
    "witness.approx_rank_bounded": (witness, "approx_rank_bounded"),
    "witness.approx_multiwitness": (witness, "approx_multiwitness"),
    "witness.approx_multiwitness_boosted": (witness, "approx_multiwitness_boosted"),
    "witness.witness_rank_matrix": (witness, "witness_rank_matrix"),
    "qsim.algorithm1": (qsim, "algorithm1"),
    "qsim.algorithm2": (qsim, "algorithm2"),
    "qsim.algorithm3": (qsim, "algorithm3"),
    "qsim.algorithm4": (qsim, "algorithm4"),
    "qsim.durr_hoyer_min": (qsim, "durr_hoyer_min"),
    "qsim.table_values": (qsim, "table_values"),
    "qsim.VirtualMinTable.from_values": (qsim.VirtualMinTable, "from_values"),
    "graphs.all_pairs_lca": (graphs, "all_pairs_lca"),
    "graphs.lca_matrix": (graphs, "lca_matrix"),
    "graphs.heaviest_triangle_per_edge": (graphs, "heaviest_triangle_per_edge"),
    "graphs.max_weight_two_edge_paths": (graphs, "max_weight_two_edge_paths"),
    "graphs.brute_force_heaviest_triangles": (graphs, "brute_force_heaviest_triangles"),
    "graphs.brute_force_two_edge_paths": (graphs, "brute_force_two_edge_paths"),
    "graphs.Dag.ancestor_bitsets": (graphs.Dag, "ancestor_bitsets"),
    "graphs.Dag.descendant_bitsets": (graphs.Dag, "descendant_bitsets"),
    "graphs.VertexWeightedGraph.adjacency": (graphs.VertexWeightedGraph, "adjacency"),
}

STAGES = ("cli.load", "cli.solve", "cli.verify", "cli.emit")
WHOLE_MAIN_STAGE = {"verify": "cli.verify", "campaign": "cli.solve"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start, end, parent, job_id, peak_kb]
        self.stack: list[int] = []
        self.rss = 0
        self.queries = {"search": 0, "scalar": 0}
        self.marks: list[float] = []

    def _note_rss(self) -> None:
        # the peak rose since the last boundary, while the innermost span ran
        r = _maxrss_kb()
        if r > self.rss:
            self.rss = r
            if self.stack:
                self.spans[self.stack[-1]][5] = r

    def enter(self, name: str, t: float | None = None) -> None:
        self._note_rss()
        parent = self.stack[-1] if self.stack else -1
        start = time.perf_counter() if t is None else t
        self.spans.append([name, start, None, parent, self.job_id, 0])
        self.stack.append(len(self.spans) - 1)

    def leave(self, t: float | None = None) -> None:
        end = time.perf_counter() if t is None else t
        self._note_rss()
        self.spans[self.stack.pop()][2] = end

    def wrap(self, name: str, fn):
        tracer = self
        count = None
        if name in ("qsim.algorithm1", "qsim.algorithm2", "qsim.algorithm3", "qsim.algorithm4"):
            def count(result):
                tracer.queries["search"] += result[1].total_queries
        elif name == "qsim.durr_hoyer_min":
            def count(result):
                tracer.queries["scalar"] += result[1].oracle_queries

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if count is not None:
                count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def perf_counter(self) -> float:
        """Stage clock: the k-th call inside a handler closes stage k-1 and opens stage k."""
        t = time.perf_counter()
        k = len(self.marks)
        self.marks.append(t)
        if 0 < k <= len(STAGES):
            self.leave(t)
        if k < len(STAGES):
            self.enter(STAGES[k], t)
        return t


class _StageClock:
    """Stands in for the ``time`` module inside ``maxwit.cli``."""

    def __init__(self, tracer: Tracer):
        self.perf_counter = tracer.perf_counter

    def __getattr__(self, name):
        return getattr(time, name)


def install(tracer: Tracer) -> None:
    modules = [m for k, m in sys.modules.items() if k == "maxwit" or k.startswith("maxwit.")]
    for name, (owner, attr) in TRACED.items():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            continue
        wrapped = tracer.wrap(name, raw)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
    maxwit.cli.time = _StageClock(tracer)


def main(argv: list[str]) -> int:
    spans_out, job_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(job_id)
    tracer.enter("job", T_START)
    install(tracer)
    whole = WHOLE_MAIN_STAGE.get(cli_args[0] if cli_args else "")
    if whole:
        tracer.enter(whole)
    code = maxwit.cli.main(cli_args)
    while len(tracer.stack) > 1:  # the open stage (cli.emit or the whole-main stage)
        tracer.leave()
    tracer.leave()
    with open(spans_out, "w") as fh:
        json.dump({"spans": tracer.spans, "queries": tracer.queries}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
