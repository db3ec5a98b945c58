"""Child-process side of the benchmark: one mode per fresh interpreter.

    python3 perfbench/probe.py oracle  WORKDIR
    python3 perfbench/probe.py measure WORKDIR SECONDS
    python3 perfbench/probe.py trace   WORKDIR SECONDS

WORKDIR holds what ``run.py`` generated: ``graph.gr`` (the only input the
program sees) and ``instance.json`` (edges, query pairs, solve knobs).  Each
mode prints one JSON object as its last line of standard output.  The
oracle runs in its own process so that it never sets the measured peak RSS.
"""

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import scaled, speed_sample
from tracer import Tracer
from workloads import cli_knobs

#: Bytes the seed's assembly gathers per candidate cell: a float64 distance
#: and an int64 hop part.  ``assembly.bytes_computed`` is this model times
#: the counted candidate cells, not a measurement.
BYTES_PER_CANDIDATE_CELL = 16

#: Query passes per round: one pass takes only 10-100 ms, so each round
#: times several to give query_s as many samples as the other metrics.
QUERY_REPEATS = 5

#: Cap on the untraced solves that give the trace its overhead base.
UNTRACED_SOLVES = 5

#: (owner, attribute, span name): the module attributes the program's own
#: callers look up, so a wrapper there sees every call.
WRAPS = [
    ("graphshrink.cli", "parse_dimacs", "dimacs.parse"),
    ("graphshrink.graph:Graph", "unreachable_pair", "graph.connectivity"),
    ("graphshrink.cli", "solve", "solver.solve"),
    ("graphshrink.cli", "write_distance_matrix", "matrices.write_distance"),
    ("graphshrink.cli", "write_precedence_matrix", "matrices.write_precedence"),
    ("graphshrink.solver", "disassemble", "disassembly.disassemble"),
    ("graphshrink.solver", "solve_residual", "microsolve.solve_residual"),
    ("graphshrink.solver", "assemble", "assembly.assemble"),
    ("graphshrink.microsolve", "dijkstra", "microsolve.dijkstra"),
]


def _digest(cells) -> str:
    """Hash of the 1..n block as float64, so the check survives a change of
    the program's storage dtype."""
    import numpy as np

    block = np.ascontiguousarray(cells[1:, 1:], dtype=np.float64)
    return hashlib.sha256(block.tobytes()).hexdigest()


class Run:
    """Instance, program handles and the correctness tally of one probe."""

    def __init__(self, work: Path):
        import graphshrink
        import graphshrink.cli
        import graphshrink.matrices

        self.gs = graphshrink
        self.cli = graphshrink.cli
        self.matrices = graphshrink.matrices
        inst = json.loads((work / "instance.json").read_text())
        self.n = inst["n"]
        self.edges = inst["edges"]
        self.pairs = [tuple(p) for p in inst["queries"]]
        self.params = graphshrink.SolveParams(**inst["knobs"])
        self.graph_path = work / "graph.gr"
        self.dist_path = work / "distances.txt"
        self.pred_path = work / "precedence.txt"
        self.argv = ["solve", "--input", str(self.graph_path),
                     "--out", str(self.dist_path), "--pred", str(self.pred_path),
                     *cli_knobs(inst["knobs"])]
        self.weights = {}
        for u, v, w in self.edges:
            self.weights[(u, v)] = self.weights[(v, u)] = w
        self.oracle = json.loads((work / "oracle.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.output_digests: dict[str, str] = {}

    def parse(self):
        return self.gs.parse_dimacs(self.graph_path.read_text())

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    # -- timed operations; each returns (seconds, output) --------------------

    def solve(self, g):
        t = time.perf_counter()
        result = self.gs.solve(g, self.params)
        return time.perf_counter() - t, result

    def cli_solve(self):
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(self.argv)
        return time.perf_counter() - t, rc

    def load(self):
        t = time.perf_counter()
        d = self.matrices.read_distance_matrix(self.dist_path.read_text())
        p = self.matrices.read_precedence_matrix(self.pred_path.read_text())
        return time.perf_counter() - t, (d, p)

    def query(self, g, result):
        t = time.perf_counter()
        out = []
        for i, j in self.pairs:
            try:
                path = self.gs.reconstruct_path(result.precedence, g, i, j)
                out.append((path, self.gs.path_weight(g, path)))
            except self.gs.PathError as exc:
                out.append(exc)
        return time.perf_counter() - t, out

    # -- correctness gates, outside the timed regions -------------------------

    def check_solve(self, result) -> None:
        got = _digest(result.distances.cells)
        self.tally(got == self.oracle["distance_sha256"],
                   "solve: distances differ from the apsp_dijkstra oracle")

    def check_cli(self, rc: int) -> None:
        digests = {"distance_file": hashlib.sha256(self.dist_path.read_bytes()).hexdigest(),
                   "precedence_file": hashlib.sha256(self.pred_path.read_bytes()).hexdigest()}
        same = not self.output_digests or digests == self.output_digests
        self.output_digests = self.output_digests or digests
        self.tally(rc == 0 and same,
                   f"cli solve: exit {rc}" if rc else "cli solve: output bytes changed between runs")

    def check_load(self, loaded, result) -> None:
        import numpy as np

        d, p = loaded
        ok = (np.array_equal(d.cells[1:, 1:], result.distances.cells[1:, 1:])
              and np.array_equal(p.cells[1:, 1:], result.precedence.cells[1:, 1:]))
        self.tally(ok, "load: files read back differ from solve()'s matrices")

    def check_queries(self, answers, result) -> int:
        """Tally each pair; return the summed hop count of the good paths."""
        hops = 0
        for (i, j), answer in zip(self.pairs, answers):
            ok = not isinstance(answer, Exception)
            if ok:
                path, w = answer
                steps = list(zip(path, path[1:]))
                ok = (path[0] == i and path[-1] == j
                      and all(step in self.weights for step in steps)
                      and sum(self.weights[s] for s in steps) == w
                      == result.distances.get(i, j))
                hops += len(steps)
            self.tally(ok, f"query ({i},{j}): {answer if not ok else ''}")
        return hops

    def check_graph(self, g) -> None:
        self.tally(g.n_original == self.n and g.m == len(self.edges)
                   and g.unreachable_pair() is None,
                   "parse: graph differs from the generated instance")

    def file_bytes(self) -> int:
        return self.dist_path.stat().st_size + self.pred_path.stat().st_size

    def report(self, **fields) -> None:
        import numpy as np

        print(json.dumps({
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "outputs": self.output_digests,
            "numpy": np.__version__,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **fields,
        }))


def counts(result, file_bytes: int, hops: int) -> dict:
    """Work counts that repeat exactly for one seed."""
    records = result.sequence.records
    degrees = [len(r.incident_edges) for r in records]
    present = result.residual_order
    candidate_cells = 0
    for k in reversed(degrees):
        candidate_cells += k * present
        present += 1
    muts = [m for r in records for m in r.mutations]
    return {
        "removals": len(records),
        "shortcuts": sum(1 for m in muts if m[2] == float("inf")),
        "pair_checks": sum(k * (k - 1) // 2 for k in degrees),
        "mutations": len(muts),
        "residual_order": result.residual_order,
        "residual_edges": result.sequence.residual.m,
        "candidate_cells": candidate_cells,
        "bytes_written": file_bytes,
        "path_hops": hops,
        "max_removed_degree": max(degrees, default=0),
        "degree_sum": sum(degrees),
    }


def mode_oracle(work: Path) -> None:
    """Independent reference: Graph built from the generated edges (not
    parsed), solved by all-sources Dijkstra."""
    import graphshrink as gs

    inst = json.loads((work / "instance.json").read_text())
    g = gs.Graph(inst["n"])
    for u, v, w in inst["edges"]:
        g.set_edge(u, v, w)
    t = time.perf_counter()
    m, _ = gs.apsp_dijkstra(g)
    seconds = time.perf_counter() - t
    print(json.dumps({"distance_sha256": _digest(m.cells),
                      "apsp_dijkstra_s": seconds}))


def mode_measure(work: Path, seconds: float) -> None:
    """Untraced closed loop: solve, CLI solve, load, query, repeated in
    rounds until ``seconds`` have passed."""
    run = Run(work)
    g = run.parse()
    run.check_graph(g)
    samples = {"solve_s": [], "cli_solve_s": [], "load_s": [], "query_s": []}
    scaled_samples = {key: [] for key in samples}

    def timed(key, op, *args, repeats=1):
        before = speed_sample()
        times, outs = zip(*(op(*args) for _ in range(repeats)))
        after = speed_sample()
        samples[key].extend(times)
        scaled_samples[key].extend(scaled(dt, before, after) for dt in times)
        return outs

    result, hops, start = None, 0, time.perf_counter()
    while not samples["query_s"] or time.perf_counter() - start < seconds:
        try:
            result, = timed("solve_s", run.solve, g)
            run.check_solve(result)
            run.check_cli(*timed("cli_solve_s", run.cli_solve))
            loaded, = timed("load_s", run.load)
            run.check_load(loaded, result)
            del loaded
            for answers in timed("query_s", run.query, g, result, repeats=QUERY_REPEATS):
                hops = run.check_queries(answers, result)
        except Exception as exc:  # a failed operation ends the run, reported
            run.tally(False, f"{type(exc).__name__}: {exc}")
            break
    run.report(samples=samples, scaled_samples=scaled_samples,
               counts=counts(result, run.file_bytes(), hops) if result and not run.failed else {})


def mode_trace(work: Path, seconds: float) -> None:
    """Untraced solves for the overhead base, then one traced pass of the
    CLI, the library solve, the readers and the queries."""
    run = Run(work)
    g = run.parse()
    run.check_graph(g)
    untraced, start = [], time.perf_counter()
    while not untraced or (len(untraced) < UNTRACED_SOLVES
                           and time.perf_counter() - start < seconds):
        untraced.append(run.solve(g)[0])

    tr = Tracer()
    for owner, attr, name in WRAPS:
        tr.wrap(owner, attr, name)
    try:
        with tr.span("cli.main") as cli_span:
            _, rc = run.cli_solve()
        with tr.span("solver.solve") as solve_span:
            result = run.gs.solve(g, run.params)
        with tr.span("matrices.read_distance") as read_d:
            d = run.matrices.read_distance_matrix(run.dist_path.read_text())
        with tr.span("matrices.read_precedence") as read_p:
            p = run.matrices.read_precedence_matrix(run.pred_path.read_text())
        answers = []
        with tr.span("paths.queries") as query_span:
            for i, j in run.pairs:
                try:
                    with tr.span("paths.reconstruct"):
                        path = run.gs.reconstruct_path(result.precedence, g, i, j)
                    answers.append((path, run.gs.path_weight(g, path)))
                except run.gs.PathError as exc:
                    answers.append(exc)
    finally:
        tr.unwrap_all()

    run.check_cli(rc)
    run.check_solve(result)
    run.check_load((d, p), result)
    del d, p
    hops = run.check_queries(answers, result)
    c = counts(result, run.file_bytes(), hops)

    def self_of(spans, children):
        """Summed self time; None when a child span could not be wrapped,
        because its time would then hide in the parent's."""
        if any(name in tr.unmeasured for name in children):
            return None
        return sum(tr.self_seconds(s) for s in spans)

    residual = [s for s in tr.spans if s.name == "microsolve.solve_residual"
                and tr.within(s, solve_span)]
    assemble_s = tr.total("assembly.assemble", solve_span)
    pair_checks = c["pair_checks"]
    base = statistics.median(untraced)
    layers = {
        "dimacs.parse_s": tr.total("dimacs.parse", cli_span),
        "dimacs.arcs": sum(1 for line in run.graph_path.read_text().splitlines()
                           if line.startswith("a ")),
        "graph.connectivity_s": tr.total("graph.connectivity", cli_span, direct=True),
        "solver.self_s": self_of([solve_span], ["disassembly.disassemble",
                                              "microsolve.solve_residual",
                                              "assembly.assemble"]),
        "solver.matrix_bytes": result.distances.cells.nbytes + result.precedence.cells.nbytes,
        "disassembly.disassemble_s": tr.total("disassembly.disassemble", solve_span),
        "disassembly.removals": c["removals"],
        "disassembly.shortcuts": c["shortcuts"],
        "disassembly.mutations": c["mutations"],
        "disassembly.pair_checks": pair_checks,
        "disassembly.shortcut_ratio": c["shortcuts"] / pair_checks if pair_checks else 0.0,
        "disassembly.max_removed_degree": c["max_removed_degree"],
        "disassembly.mean_removed_degree":
            c["degree_sum"] / c["removals"] if c["removals"] else 0.0,
        "microsolve.solve_residual_s": tr.total("microsolve.solve_residual", solve_span),
        "microsolve.dijkstra_s": tr.total("microsolve.dijkstra", solve_span),
        "microsolve.merge_s": self_of(residual, ["microsolve.solve_residual",
                                                 "microsolve.dijkstra"]),
        "microsolve.sources": c["residual_order"] if c["residual_order"] > 1 else 0,
        "microsolve.residual_order": c["residual_order"],
        "microsolve.residual_edges": c["residual_edges"],
        "assembly.assemble_s": assemble_s,
        "assembly.restores": c["removals"],
        "assembly.candidate_cells": c["candidate_cells"],
        "assembly.bytes_computed": c["candidate_cells"] * BYTES_PER_CANDIDATE_CELL,
        "assembly.cells_per_s": c["candidate_cells"] / assemble_s if assemble_s else None,
        "matrices.write_distance_s": tr.total("matrices.write_distance", cli_span),
        "matrices.write_precedence_s": tr.total("matrices.write_precedence", cli_span),
        "matrices.bytes_written": c["bytes_written"],
        "matrices.read_distance_s": read_d.seconds,
        "matrices.read_precedence_s": read_p.seconds,
        "paths.reconstruct_s": tr.total("paths.reconstruct", query_span),
        "paths.queries": len(run.pairs),
        "paths.hops": c["path_hops"],
        "cli.self_s": self_of([cli_span], ["dimacs.parse", "graph.connectivity",
                                           "solver.solve", "matrices.write_distance",
                                           "matrices.write_precedence"]),
        "trace.overhead_frac": solve_span.seconds / base - 1,
    }
    run.report(layers=layers, untraced_solve_s=untraced, counts=c,
               unmeasured=tr.unmeasured, spans=tr.as_records())


def main(argv: list[str]) -> None:
    mode, work = argv[0], Path(argv[1])
    if mode == "oracle":
        mode_oracle(work)
    elif mode == "measure":
        mode_measure(work, float(argv[2]))
    elif mode == "trace":
        mode_trace(work, float(argv[2]))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
