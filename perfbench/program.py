"""The program side of a run, executed in a fresh process per step.

    python3 perfbench/program.py build  WORKDIR   # timed rounds of build + queries
    python3 perfbench/program.py setup  WORKDIR   # snapshot on disk -> first answer
    python3 perfbench/program.py staged WORKDIR   # traced, stage-by-stage run

``WORKDIR/job.json`` says what to do; the step writes ``WORKDIR/<step>.json``
(``setup`` prints its one result instead).  Each step generates the
workload graph itself and refuses to run if its edge hash differs from
the one the benchmark checks answers against.  Only public calls of the
program are made: ``repro.build/save/load/query/query_batch``, the layer
functions ``CTIndex.build`` runs, ``DeltaOverlayIndex`` and ``QueryEngine``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spec  # noqa: E402
from perfbench.stats import median, percentile, round_summary, summary  # noqa: E402
from perfbench.trace import Tracer, self_times  # noqa: E402

WARMUP_QUERIES = 1000
#: Distinct pairs cycled through by the timed single-query phase.
SINGLE_POOL = 50_000
BATCH_POOL = 500
#: Answers returned for the oracle to check, per phase, in timed runs.
CHECKED = 2000
#: Traced run: pairs of the workload's stream, extra pairs per rare case,
#: and batches; every answer of the traced run is checked.
TRACED_PAIRS = 2000
STAGED_BUILDS = 5
CASE_SAMPLES = 200
TRACED_BATCHES = 32
ENGINE_BATCHES = 200


def encode(d):
    return None if d == math.inf else d


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_job(work: Path):
    job = json.loads((work / "job.json").read_text())
    workload = spec.WORKLOADS[job["workload"]]
    graph = workload.make_graph()
    if spec.edges_sha256(graph) != job["edges_sha256"]:
        raise SystemExit("generated graph differs from the benchmark's copy")
    inputs = spec.Inputs(workload, job["seed"], graph)
    return job, workload, graph, inputs


def effective_config(index) -> dict:
    return {
        "storage_backend": index.storage_backend,
        "kernel": index.kernel,
        "stats": dataclasses.asdict(index.stats()),
    }


def build(work: Path) -> dict:
    """Timed rounds, each started by a line on stdin and answered by a
    JSON line on stdout: one build + snapshot write, then a slice of the
    single-query and batch phases on the first snapshot, memory-mapped.
    Spreading the phases over the whole run keeps a passing slowdown of
    the host from landing on one phase only."""
    import repro

    job, workload, graph, inputs = load_job(work)
    rounds = job["rounds"]
    pairs = inputs.single_pairs("single", SINGLE_POOL)
    batches = chunks(inputs.uniform_pairs("batch", BATCH_POOL * spec.BATCH_SIZE))
    samples, checked = [], []
    build_s, batch_qps, queried, answered = [], [], 0, 0
    loaded = None
    for r in range(rounds):
        if not sys.stdin.readline():
            break
        snapshot = work / ("index.bin" if r == 0 else f"build-{r}.bin")
        started = time.perf_counter()
        index = repro.build(graph, workload.bandwidth)
        repro.save(index, snapshot, format="binary")
        build_s.append(time.perf_counter() - started)
        if loaded is None:
            built = effective_config(index)
            index_bytes = snapshot.stat().st_size
            del index
            loaded = repro.load(snapshot, mmap=True)
            for s, t in inputs.single_pairs("warmup", WARMUP_QUERIES):
                repro.query(loaded, s, t)
        else:
            del index
            snapshot.unlink()

        samples.append([])
        deadline = time.perf_counter() + job["phases"]["single"] / rounds
        while True:
            s, t = pairs[queried % SINGLE_POOL]
            started = time.perf_counter_ns()
            d = repro.query(loaded, s, t)
            samples[-1].append(time.perf_counter_ns() - started)
            if queried < CHECKED:
                checked.append((s, t, encode(d)))
            queried += 1
            if queried % 64 == 0 and time.perf_counter() >= deadline:
                break

        started = time.perf_counter()
        deadline = started + job["phases"]["batch"] / rounds
        before = answered
        while time.perf_counter() < deadline:
            batch = batches[(answered // spec.BATCH_SIZE) % BATCH_POOL]
            values = repro.query_batch(loaded, batch)
            if answered < CHECKED:
                checked.extend((s, t, encode(d)) for (s, t), d in zip(batch, values))
            answered += len(values)
        batch_qps.append((answered - before) / (time.perf_counter() - started))
        print(json.dumps({"round": r}), flush=True)
    return {
        "build_s": build_s,
        "index_bytes": index_bytes,
        "built": built,
        "loaded": {"storage_backend": loaded.storage_backend, "kernel": loaded.kernel},
        "single_ns": round_summary(samples),
        "single_queries": queried,
        "batch_pairs": answered,
        "batch_qps": batch_qps,
        "checked": checked,
        "peak_rss_mb": peak_rss_mb(),
    }


def chunks(pairs):
    size = spec.BATCH_SIZE
    return [pairs[i : i + size] for i in range(0, len(pairs), size)]


def setup(work: Path) -> dict:
    import repro

    job = json.loads((work / "job.json").read_text())
    s, t = job["setup_pair"]
    started = time.perf_counter()
    index = repro.load(work / "index.bin", mmap=True)
    d = repro.query(index, s, t)
    return {"setup_s": time.perf_counter() - started, "checked": [(s, t, encode(d))]}


def classify(index, s: int, t: int) -> str:
    """Which of the CT-Index's four query cases answers ``(s, t)``
    ("case0": answered by the twin reduction alone)."""
    rep = index.reduction.representative
    rs, rt = rep[s], rep[t]
    if s == t or rs == rt:
        return "case0"
    dec = index.decomposition
    ps, pt = dec.position[rs], dec.position[rt]
    if ps is None and pt is None:
        return "case1"
    if ps is None or pt is None:
        return "case2"
    return "case4" if dec.same_tree(ps, pt) else "case3"


def case_pairs(index, inputs, case: str, count: int):
    """Up to ``count`` pairs that fall in ``case``, for cases a stream
    rarely hits."""
    rng = inputs.rng(f"case-{case}")
    rep = index.reduction.representative
    dec = index.decomposition
    core, trees = [], {}
    for v in range(index.graph.n):
        pos = dec.position[rep[v]]
        if pos is None:
            core.append(v)
        else:
            trees.setdefault(dec.root[pos], []).append(v)
    forest = [v for members in trees.values() for v in members]
    if case == "case4":
        shared = [members for members in trees.values() if len(members) > 1]
        if not shared:
            return []
        draw = lambda: tuple(rng.sample(rng.choice(shared), 2))  # noqa: E731
    else:
        left, right = {"case1": (core, core), "case2": (forest, core),
                       "case3": (forest, forest)}[case]
        if not left or not right:
            return []
        draw = lambda: (rng.choice(left), rng.choice(right))  # noqa: E731
    pairs = []
    for _ in range(100 * count):
        s, t = draw()
        if classify(index, s, t) == case:
            pairs.append((s, t))
            if len(pairs) == count:
                break
    return pairs


def staged(work: Path) -> dict:
    import repro
    from repro.core import CTIndex
    from repro.core.construction import build_core_index, build_tree_index
    from repro.core.serialization import index_fingerprint
    from repro.dynamic import DeltaOverlayIndex
    from repro.graphs.reductions import eliminate_equivalent_nodes
    from repro.serving import QueryEngine
    from repro.treedec.core_tree import core_tree_decomposition

    job, workload, graph, inputs = load_job(work)
    tracer = Tracer("c", root_parent=job["parent_span"])
    snapshot = work / "index.bin"
    bw = workload.bandwidth

    def untraced_build():
        started = time.perf_counter()
        index = repro.build(graph, bw)
        repro.save(index, snapshot, format="binary")
        return index, time.perf_counter() - started

    def staged_build():
        with tracer.span("build") as root:
            with tracer.span("graphs.reduction"):
                reduction = eliminate_equivalent_nodes(graph)
            with tracer.span("treedec.decompose"):
                decomposition = core_tree_decomposition(reduction.reduced, bw)
            with tracer.span("core.forest_labels"):
                tree_index = build_tree_index(decomposition)
            with tracer.span("labeling.core_labels"):
                core_index, originals, compact = build_core_index(decomposition)
            with tracer.span("core.assemble"):
                index = CTIndex(
                    graph=graph, bandwidth=bw, reduction=reduction, tree_index=tree_index,
                    core_index=core_index, core_originals=originals, core_compact=compact,
                )
            with tracer.span("storage.save"):
                repro.save(index, snapshot, format="binary")
        counts = {
            "graphs.reduced_n": reduction.reduced.n,
            "treedec.core_n": len(decomposition.core_nodes),
            "treedec.forest_height": decomposition.forest_height(),
            "core.tree_entries": tree_index.size_entries(),
            "labeling.core_entries": core_index.size_entries(),
        }
        return index, root, counts

    # Untraced and staged builds alternate in pairs, so neither side gets
    # the one-off costs of the first build or a quieter stretch of the
    # host; each stage reports its median self time over the staged
    # builds, and coverage and overhead are medians over the pairs.
    stage_self, coverage, overhead = {}, [], []
    for i in range(STAGED_BUILDS):
        reference, elapsed = untraced_build()
        if i == 0:
            reference_fp = index_fingerprint(reference)
            built = effective_config(reference)
        del reference
        index, root, counts = staged_build()
        if i == 0:
            fingerprint_match = index_fingerprint(index) == reference_fp
        del index
        own = self_times(
            [sp for sp in tracer.spans if root["id"] in (sp["id"], sp["parent"])]
        )
        for name, seconds in own.items():
            stage_self.setdefault(name, []).append(seconds)
        staged_s = (root["end_ns"] - root["start_ns"]) / 1e9
        coverage.append((staged_s - own["build"]) / elapsed)
        overhead.append(staged_s - elapsed)

    with tracer.span("storage.load"):
        loaded = repro.load(snapshot, mmap=True)
    checked = []
    with tracer.span("warmup"):
        for s, t in inputs.single_pairs("warmup", WARMUP_QUERIES):
            repro.query(loaded, s, t)

    hits, misses, probes = (
        loaded.extension_cache_hits, loaded.extension_cache_misses, loaded.core_probes
    )
    case_spans: dict[str, list[dict]] = {f"case{c}": [] for c in range(5)}
    with tracer.span("queries"):
        for s, t in inputs.single_pairs("traced", TRACED_PAIRS):
            case = classify(loaded, s, t)
            with tracer.span("repro.query", case=case) as sp:
                d = repro.query(loaded, s, t)
            case_spans[case].append(sp)
            checked.append((s, t, encode(d)))
    hits = loaded.extension_cache_hits - hits
    misses = loaded.extension_cache_misses - misses
    probes = loaded.core_probes - probes
    shares = {c: len(v) / TRACED_PAIRS for c, v in case_spans.items()}
    with tracer.span("case_queries"):
        for case in ("case1", "case2", "case3", "case4"):
            for s, t in case_pairs(loaded, inputs, case, max(0, CASE_SAMPLES - len(case_spans[case]))):
                with tracer.span("repro.query", case=case, stratified=True) as sp:
                    d = repro.query(loaded, s, t)
                case_spans[case].append(sp)
                checked.append((s, t, encode(d)))
    case_p50_us = {
        c: percentile([(sp["end_ns"] - sp["start_ns"]) / 1e3 for sp in v], 50) if v else 0.0
        for c, v in case_spans.items()
    }
    case_n = {c: len(v) for c, v in case_spans.items()}
    with tracer.span("batches"):
        for batch in chunks(inputs.uniform_pairs("traced-batch", TRACED_BATCHES * spec.BATCH_SIZE)):
            with tracer.span("repro.query_batch", size=len(batch)):
                values = repro.query_batch(loaded, batch)
            checked.extend((s, t, encode(d)) for (s, t), d in zip(batch, values))

    # The served op stream, replayed in-process through the same layers
    # the server stacks: QueryEngine over a DeltaOverlayIndex.
    overlay = DeltaOverlayIndex(loaded)
    engine = QueryEngine(overlay)
    replayed, state, fresh = [], 0, False
    engine_ns, mutate_ns, post_add_ns = [], [], []
    with tracer.span("engine_replay"):
        for _, op in inputs.open_loop_ops(job["phases"]["open"]):
            if op[0] == "mutate":
                _, kind, u, v = op
                with tracer.span("dynamic.apply", op=kind) as sp:
                    engine.apply_mutations([(kind, u, v, 1 if kind == "add" else None)])
                mutate_ns.append(sp["end_ns"] - sp["start_ns"])
                state += 1
                fresh = kind == "add"
                continue
            _, s, t = op
            with tracer.span("serving.engine_query", state=state) as sp:
                d = engine.query(s, t)
            elapsed = sp["end_ns"] - sp["start_ns"]
            engine_ns.append(elapsed)
            if fresh:
                post_add_ns.append(elapsed)
                fresh = False
            replayed.append((s, t, encode(d), state))
        batches = chunks(inputs.uniform_pairs("closed", ENGINE_BATCHES * spec.BATCH_SIZE))
        with tracer.span("serving.engine_batches") as sp:
            for batch in batches:
                engine.query_batch(batch)
        engine_capacity = ENGINE_BATCHES * spec.BATCH_SIZE / (
            (sp["end_ns"] - sp["start_ns"]) / 1e9
        )
    answers = overlay.overlay_stats()["answers"]
    return {
        "spans": tracer.spans,
        "stage_self_s": {name: median(v) for name, v in stage_self.items()},
        "build_coverage": median(coverage),
        "trace_overhead_s": median(overhead),
        "fingerprint_match": fingerprint_match,
        "built": built,
        "loaded": {"storage_backend": loaded.storage_backend, "kernel": loaded.kernel},
        "counts": counts,
        "case_share": shares,
        "case_p50_us": case_p50_us,
        "case_n": case_n,
        "ext_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core_probes_per_query": probes / TRACED_PAIRS,
        "engine_ns": summary(engine_ns),
        "engine_capacity_qps": engine_capacity,
        "mutate_ns": summary(mutate_ns),
        "post_add_query_ns": summary(post_add_ns),
        "overlay_answers": answers,
        "checked": checked,
        "replayed": replayed,
        "peak_rss_mb": peak_rss_mb(),
    }


STEPS = {"build": build, "setup": setup, "staged": staged}


if __name__ == "__main__":
    step, workdir = sys.argv[1], Path(sys.argv[2])
    result = STEPS[step](workdir)
    if step == "setup":
        print(json.dumps(result))
    else:
        (workdir / f"{step}.json").write_text(json.dumps(result))
