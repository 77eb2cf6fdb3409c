"""Run one workload of the CT-Index benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-fb --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
inputs from ``--seed``, runs the program in fresh child processes (the
builder/querier, the snapshot loader, and ``repro serve``), drives the
server from this process, checks answers against its own BFS, and prints
one line per metric followed by a JSON result line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` is the separate traced run that
reports the per-layer metrics and writes its spans under
``.perfbench_out/``.  A correct run is appended to
``.perfbench_out/results.jsonl``; a run with any failure is not.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: Rounds of a timed run: each builds once, runs a slice of the in-process
#: query phases, and times set-up once (a fresh loader process, or a
#: server spawn); the run reports medians over rounds.
ROUNDS = 6
STEP_TIMEOUT_S = 150
#: Closed-loop batches whose answers are checked in a timed run.
CHECKED_BATCHES = 32
#: Untimed single queries sent before each open-loop slice.
WARMUP_REQUESTS = 100

#: Gated end-to-end metrics, name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "peak_rss_mb": "MB",
    "index_bytes": "B",
    "serve_p50_ms": "ms",
    "serve_capacity_qps": "pairs/s",
}
#: Printed beside them but not gated.  On the shared 2-vCPU host the
#: benchmark was tuned on, the speed of in-process queries shifts by up
#: to 35% for minutes at a time, so over 10 runs these spread past any
#: bound the benchmark may set (0.25): in-process query latency and
#: batch throughput (0.07-0.35), and serve_p99_ms, which a handful of
#: pauses per run decide (0.19-0.75).  A run also sends only ~24 writes,
#: each a ~1 ms round trip on an idle engine.  serve_capacity_qps gates
#: the query engine instead: the closed loop spends most of its time in
#: query_batch and spread 0.10-0.17.
REPORTED = {
    "query_p50_us": "us",
    "query_p99_us": "us",
    "batch_qps": "pairs/s",
    "serve_p99_ms": "ms",
    "mutate_p50_ms": "ms",
    "loadgen_lag_p99_ms": "ms",
}

#: Build stages of CTIndex.build, replayed one public call each.
BUILD_STAGES = (
    "graphs.reduction",
    "treedec.decompose",
    "core.forest_labels",
    "labeling.core_labels",
    "core.assemble",
    "storage.save",
)

PER_LAYER = {
    **{f"{stage}_s": "s" for stage in BUILD_STAGES},
    "graphs.reduced_n": "count",
    "treedec.core_n": "count",
    "treedec.forest_height": "count",
    "core.tree_entries": "count",
    "labeling.core_entries": "count",
    "storage.load_s": "s",
    **{f"core.case{c}_share": "ratio" for c in range(1, 5)},
    **{f"core.case{c}_p50_us": "us" for c in range(1, 5)},
    "core.ext_cache_hit_rate": "ratio",
    "core.core_probes_per_query": "count",
    "serving.engine_us": "us",
    "serving.engine_capacity_qps": "pairs/s",
    "serving.http_overhead_ms": "ms",
    "serving.mean_batch_size": "count",
    "serving.rejected": "count",
    "serving.mutate_p50_ms": "ms",
    "dynamic.mutate_us": "us",
    "dynamic.post_mutate_query_ms": "ms",
    "dynamic.through_answers": "count",
    "dynamic.certified_answers": "count",
    "dynamic.fallback_answers": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_s": "s",
    "trace.build_coverage": "ratio",
}


def step(name: str, work: Path, job: dict) -> dict:
    """Run one program-side step in a fresh process and return its result."""
    (work / "job.json").write_text(json.dumps(job))
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "program.py"), name, str(work)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=STEP_TIMEOUT_S,
    ).stdout
    if name == "setup":
        return json.loads(out)
    return json.loads((work / f"{name}.json").read_text())


def decoded(answers):
    """Checked answers as sent back by a step: JSON null is unreachable."""
    import math

    return [(s, t, math.inf if d is None else d, *rest) for s, t, d, *rest in answers]


def check(tally, csr, answers, what: str) -> None:
    from perfbench.oracle import wrong_answers

    tally.add(0, len(wrong_answers(csr, decoded(answers))), f"wrong {what}")


class ServeLog:
    """Requests sent to the server, slice by slice, checked as they come.

    An open-loop slice then a closed-loop slice run against the server's
    port; every open-loop answer is checked against the graph states in
    effect while it was in flight, and closed-loop answers against the
    base graph (the patch is empty again when each open-loop slice ends).
    """

    def __init__(self, csr, inputs, tally, tracer=None) -> None:
        from perfbench.oracle import MutationOracle

        self.csr = csr
        self.inputs = inputs
        self.tally = tally
        self.tracer = tracer
        self.oracle = MutationOracle(csr, inputs.mutation_edges)
        self.query_ns: list[int] = []
        self.mutate_ns: list[int] = []
        self.lags: list[float] = []
        self.mutations = 0
        self.closed_pairs = 0
        self.capacity: list[float] = []
        self.closed_checked = 0

    def run_slice(self, port: int, part: int, open_s: float, *, closed_s=None, closed_count=None):
        from perfbench import loadgen, spec
        from perfbench.oracle import wrong_answers
        from perfbench.program import chunks

        conns = loadgen.connections()
        # Untimed warm-up: the first queries a server answers pay one-off
        # costs (kernel set-up, page faults, cache fill).
        warm = [(0.0, ("query",) + pair)
                for pair in self.inputs.single_pairs(f"serve-warmup-{part}", WARMUP_REQUESTS)]
        warmed = asyncio.run(loadgen.open_loop(port, warm, conns, self.mutations))
        self._check_open(warmed["results"])
        ops = self.inputs.open_loop_ops(open_s, part, self.mutations)
        opened = asyncio.run(loadgen.open_loop(port, ops, conns, self.mutations))
        self.mutations += sum(op[0] == "mutate" for _, op in ops)
        batches = chunks(self.inputs.uniform_pairs(f"closed-{part}", 100 * spec.BATCH_SIZE))
        closed = asyncio.run(loadgen.closed_loop(
            port, batches, conns, seconds=closed_s, count=closed_count,
        ))

        results = opened["results"]
        self.lags.extend(opened["lags"])
        self._check_open(results)
        for r in results:
            latency = r["end_ns"] - r["due_ns"]
            (self.mutate_ns if r["kind"] == "mutate" else self.query_ns).append(latency)

        checked, pairs = [], 0
        for r in closed["results"]:
            self.tally.add(spec.BATCH_SIZE)
            if r["status"] != 200 or len(r["distances"]) != spec.BATCH_SIZE:
                self.tally.add(0, spec.BATCH_SIZE, "refused or failed batch")
                continue
            pairs += spec.BATCH_SIZE
            if self.tracer is not None or self.closed_checked < CHECKED_BATCHES:
                self.closed_checked += 1
                checked.extend(
                    (s, t, d) for (s, t), d in zip(batches[r["batch"]], r["distances"])
                )
        self.closed_pairs += pairs
        self.capacity.append(pairs / closed["elapsed_s"])
        self.tally.add(0, len(wrong_answers(self.csr, checked)), "wrong served batch answer")

        if self.tracer is not None:
            for r in results:
                self.tracer.add(f"http.{r['kind']}", r["due_ns"], r["end_ns"],
                                self.tracer.current, sent_ns=r["sent_ns"])
            for r in closed["results"]:
                self.tracer.add("http.query_batch", r["sent_ns"], r["end_ns"],
                                self.tracer.current)

    def _check_open(self, results) -> None:
        self.tally.add(len(results))
        refused = [
            r for r in results
            if r["status"] != 200 or (r["kind"] == "mutate" and r["applied"] != 1)
        ]
        self.tally.add(0, len(refused), "refused or failed request")
        answered = [(r["s"], r["t"], r["distance"], r["lo"], r["hi"])
                    for r in results if r["kind"] == "query" and r["status"] == 200]
        self.tally.add(0, len(self.oracle.wrong(answered)), "wrong served answer")

    def summary(self) -> dict:
        from perfbench.stats import median, percentile, summary

        return {
            "serve_ms": summary(self.query_ns, 1e-6),
            "mutate_ms": summary(self.mutate_ns, 1e-6),
            "capacity_qps": median(self.capacity),
            "closed_pairs": self.closed_pairs,
            "lag_p99_ms": percentile(self.lags, 99) * 1e3,
            "lag_n": len(self.lags),
        }


def stamp(effective: dict) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "effective_config": effective,
    }


def timed_run(workload, inputs, job, work, csr, tally) -> tuple[dict, dict, dict]:
    """``--trace 0``: every end-to-end metric, as (values, sample counts, config).

    The run is ROUNDS rounds of: one build in the builder process plus a
    slice of its in-process query phases, one timed set-up, and one
    open-loop and one closed-loop serving slice.  Phases never overlap,
    and spreading each over the run keeps a passing slowdown of a shared
    host from landing on one phase only.
    """
    from perfbench import loadgen
    from perfbench.stats import median

    job = dict(job, rounds=ROUNDS)
    (work / "job.json").write_text(json.dumps(job))
    snapshot = work / "index.bin"
    phases = {k: v / ROUNDS for k, v in job["phases"].items()}
    log = ServeLog(csr, inputs, tally)
    builder = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "program.py"), "build", str(work)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    setups, server_rss, server = [], [], None
    try:
        for r in range(ROUNDS):
            builder.stdin.write("round\n")
            builder.stdin.flush()
            ready, _, _ = select.select([builder.stdout], [], [], STEP_TIMEOUT_S)
            if not ready or not builder.stdout.readline():
                raise RuntimeError(f"builder round {r} did not finish")
            if workload.server_side:
                server = loadgen.Server(ROOT, snapshot)
                setups.append(server.ready_s)
            else:
                first = step("setup", work, job)
                tally.add(1)
                check(tally, csr, first["checked"], "first answer")
                setups.append(first["setup_s"])
                if server is None:
                    server = loadgen.Server(ROOT, snapshot)
            log.run_slice(server.port, r, phases["open"], closed_s=phases["closed"])
            if workload.server_side:
                server_rss.append(server.stop())
                server = None
        builder.stdin.close()
        builder.wait(timeout=STEP_TIMEOUT_S)
    finally:
        if server is not None:
            server_rss.append(server.stop())
        if builder.poll() is None:
            builder.kill()
            builder.wait()
        builder.stdout.close()
    if builder.returncode:
        raise RuntimeError(f"builder exited with {builder.returncode}")
    built = json.loads((work / "build.json").read_text())
    tally.add(len(built["build_s"]) + built["single_queries"] + built["batch_pairs"])
    check(tally, csr, built["checked"], "in-process answer")
    served = log.summary()

    values = {
        "setup_s": median(setups),
        "build_s": median(built["build_s"]),
        "peak_rss_mb": median(server_rss) if workload.server_side else built["peak_rss_mb"],
        "index_bytes": built["index_bytes"],
        "query_p50_us": built["single_ns"]["p50"] / 1e3,
        "query_p99_us": built["single_ns"]["p99"] / 1e3,
        "batch_qps": median(built["batch_qps"]),
        "serve_p50_ms": served["serve_ms"]["p50"],
        "serve_p99_ms": served["serve_ms"]["p99"],
        "serve_capacity_qps": served["capacity_qps"],
        "mutate_p50_ms": served["mutate_ms"]["p50"],
        "loadgen_lag_p99_ms": served["lag_p99_ms"],
    }
    counts = {
        "setup_s": len(setups),
        "build_s": len(built["build_s"]),
        "peak_rss_mb": len(server_rss) if workload.server_side else 1,
        "query_p50_us": built["single_ns"]["n"],
        "query_p99_us": built["single_ns"]["n"],
        "batch_qps": built["batch_pairs"],
        "serve_p50_ms": served["serve_ms"]["n"],
        "serve_p99_ms": served["serve_ms"]["n"],
        "serve_capacity_qps": served["closed_pairs"],
        "mutate_p50_ms": served["mutate_ms"]["n"],
        "loadgen_lag_p99_ms": served["lag_n"],
    }
    effective = {"built": built["built"], "loaded": built["loaded"]}
    return values, counts, effective


def traced_run(workload, inputs, job, work, csr, tally) -> tuple[dict, dict, dict]:
    """``--trace 1``: every per-layer metric, from spans and counters."""
    from perfbench import loadgen
    from perfbench.oracle import MutationOracle
    from perfbench.program import TRACED_BATCHES
    from perfbench.trace import Tracer, duration_s, write

    tracer = Tracer("p")
    with tracer.span("run", workload=workload.name, seed=job["seed"]) as root:
        job = dict(job, parent_span=root["id"])
        staged = step("staged", work, job)
        tracer.spans.extend(staged["spans"])
        tally.add(len(staged["checked"]) + len(staged["replayed"]) + 1)
        check(tally, csr, staged["checked"], "traced answer")
        replayed = [(s, t, d, k, k) for s, t, d, k in decoded(staged["replayed"])]
        wrong = MutationOracle(csr, inputs.mutation_edges).wrong(replayed)
        tally.add(0, len(wrong), "wrong replayed answer")
        if not staged["fingerprint_match"]:
            tally.add(0, 1, "staged build fingerprint differs from repro.build")
        with tracer.span("serve"):
            server = loadgen.Server(ROOT, work / "index.bin")
            tracer.add("serve.spawn", int(server.spawned * 1e9),
                       int((server.spawned + server.ready_s) * 1e9), tracer.current)
            log = ServeLog(csr, inputs, tally, tracer)
            try:
                log.run_slice(server.port, 0, job["phases"]["open"],
                              closed_count=TRACED_BATCHES)
                _, stats = server.get("/stats")
            finally:
                server.stop()
    served = log.summary()
    OUT.mkdir(exist_ok=True)
    write(tracer.spans, OUT / f"trace-{workload.name}-{job['seed']}.jsonl")

    by_name = {s["name"]: s for s in tracer.spans}
    selfs = staged["stage_self_s"]
    post_add = staged["post_add_query_ns"]
    answers = staged["overlay_answers"]
    values = {
        **{f"{stage}_s": selfs[stage] for stage in BUILD_STAGES},
        **staged["counts"],
        "storage.load_s": duration_s(by_name["storage.load"]),
        **{f"core.case{c}_share": staged["case_share"][f"case{c}"] for c in range(1, 5)},
        **{f"core.case{c}_p50_us": staged["case_p50_us"][f"case{c}"] for c in range(1, 5)},
        "core.ext_cache_hit_rate": staged["ext_cache_hit_rate"],
        "core.core_probes_per_query": staged["core_probes_per_query"],
        "serving.engine_us": staged["engine_ns"]["p50"] / 1e3,
        "serving.engine_capacity_qps": staged["engine_capacity_qps"],
        "serving.http_overhead_ms": served["serve_ms"]["p50"] - staged["engine_ns"]["p50"] / 1e6,
        "serving.mean_batch_size": stats["batched_queries"] / max(1, stats["batches"]),
        "serving.rejected": sum(stats["rejected"].values()),
        "serving.mutate_p50_ms": served["mutate_ms"]["p50"],
        "dynamic.mutate_us": staged["mutate_ns"]["p50"] / 1e3,
        "dynamic.post_mutate_query_ms": post_add["p50"] / 1e6,
        "dynamic.through_answers": answers["through"],
        "dynamic.certified_answers": answers["certified"],
        "dynamic.fallback_answers": answers["fallback"],
        "loadgen.lag_p99_ms": served["lag_p99_ms"],
        "trace.overhead_s": staged["trace_overhead_s"],
        "trace.build_coverage": staged["build_coverage"],
    }
    counts = {
        **{f"core.case{c}_p50_us": staged["case_n"][f"case{c}"] for c in range(1, 5)},
        "serving.engine_us": staged["engine_ns"]["n"],
        "serving.http_overhead_ms": served["serve_ms"]["n"],
        "serving.mutate_p50_ms": served["mutate_ms"]["n"],
        "dynamic.mutate_us": staged["mutate_ns"]["n"],
        "dynamic.post_mutate_query_ms": post_add["n"],
        "loadgen.lag_p99_ms": served["lag_n"],
    }
    effective = {"built": staged["built"], "loaded": staged["loaded"]}
    return values, counts, effective


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT.name}/src/repro; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import spec
    from perfbench.oracle import Csr
    from perfbench.stats import Tally, record

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in spec.WORKLOADS
        ]
        return max(codes)

    workload = spec.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    graph = workload.make_graph()
    edges_sha = spec.edges_sha256(graph)
    csr = Csr.from_graph(graph)
    inputs = spec.Inputs(workload, args.seed, graph)
    job = {
        "workload": workload.name,
        "seed": args.seed,
        "edges_sha256": edges_sha,
        "phases": {k: args.seconds * share for k, share in spec.PHASE_SHARES.items()},
        "setup_pair": inputs.hot[0],
        "parent_span": None,
    }
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        runner = traced_run if args.trace else timed_run
        values, counts, effective = runner(workload, inputs, job, work, csr, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {"n": graph.n, "m": graph.m, "edges_sha256": edges_sha},
        "stamp": stamp(effective),
        "metrics": metrics,
        "sample_counts": counts,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_share": tally.fail_share,
        "failures": tally.reasons,
    }
    recorded = record(result, tally, OUT / "results.jsonl")

    print(f"workload {workload.name} seed {args.seed}: n={graph.n} m={graph.m} "
          f"edges sha256 {edges_sha[:16]}")
    print(f"host: nproc={result['stamp']['nproc']} python={result['stamp']['python']} "
          f"numpy={result['stamp']['numpy']} commit={result['stamp']['commit'][:12]}")
    print("effective config: " + json.dumps(effective, sort_keys=True))
    for name, metric in metrics.items():
        count = f" (n={counts[name]})" if name in counts else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{count}")
    if not args.trace:
        for name, unit in REPORTED.items():
            print(f"{name} = {values[name]:.6g} {unit} (n={counts[name]}, not gated)")
        print(f"in-process timings are medians over {ROUNDS} rounds; n counts every sample")
    print(f"fail_share = {tally.fail_share:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations) {tally.reasons or ''}")
    print("recorded as baseline" if recorded else "NOT recorded: the run had failures")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
