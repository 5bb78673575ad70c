"""Seeded decompose benchmark for twdecomp.

    python3 perfbench/run.py --workload pkt_search --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Each pass sends the workload's job list, in an order drawn from the
seed, one job after the other from this one thread (a closed loop with one
client). Every job is timed through ``twdecomp.decompose`` and then through
emit -> parse -> ``check_tree_decomposition``, and every output is checked by
``check_output`` below, which uses networkx and none of the package's code.

Times are reported in calibrated seconds (see speed.py): the host's speed
drifts by up to 2x within a second, so each timed region is scaled by the
speed that a fixed probe measures while it runs. The wall-clock figures are
kept in the summary line and the record.

``--trace 0`` prints the end-to-end metrics, the medians over the passes of
each job summed over the job list. ``--trace 1`` adds passes with every
public layer function wrapped (see tracer.py) and prints per-layer metrics.
The last line of standard output is the result JSON; the full record,
provenance included, is written under ``.perfbench/`` in the checkout.

anchors.json holds, per workload and job, the seed code's k_used, width+1,
counts and .td digest (the "jobs" field of a run's record); a run reports the
jobs whose .td bytes differ from it as ``triangulate.td_changed``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import networkx as nx

from speed import SpeedMeter
from tracer import Tracer, layer_metrics, package_modules
from workloads import WORKLOADS, Job, width_bound

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
ANCHORS = BENCH_DIR / "anchors.json"
SETUP_REPEATS = 9
VERIFY_MIN_S = 0.03
ALGOS = ("rs4", "half45", "bg367", "mindeg")

# Metrics on the result line. solve_s.mindeg and failed_ratio are left out:
# each reads 0 on some workload (grid_reject runs no mindeg job, and a correct
# run fails no job); both are printed in the summary line, and failures are
# carried by the result's "failed" and "attempted".
END_TO_END = {
    "solve_s": "s", "solve_s.rs4": "s", "solve_s.half45": "s",
    "solve_s.bg367": "s", "job_max_s": "s", "verify_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "width_plus_one_sum": "count", "k_used_sum": "count",
}
PER_LAYER = {
    "flow.calls": "count", "flow.self_s": "s", "flow.augmentations": "count",
    "flow.augs_per_call": "ratio", "flow.exceeded_ratio": "ratio",
    "flow.max_augs_over_bound": "count", "flow.3way_calls": "count",
    "flow.3way_self_s": "s",
    "separators.searches": "count", "separators.search_rejects": "count",
    "separators.candidates": "count", "separators.candidates_per_search": "ratio",
    "separators.split_hit_ratio": "ratio", "separators.self_s": "s",
    "graph.clique_calls": "count", "graph.clique_fill_edges": "count",
    "graph.clique_s": "s", "graph.induced_calls": "count",
    "graph.induced_vertices": "count", "graph.induced_s": "s",
    "graph.components_s": "s",
    "triangulate.self_s": "s", "triangulate.mindeg_s": "s",
    "triangulate.assemble_s": "s", "triangulate.bags": "count",
    "triangulate.td_depth": "count", "triangulate.td_changed": "count",
    "validate.chordal_calls": "count", "validate.chordal_s": "s",
    "validate.clique_number_s": "s", "validate.check_td_s": "s",
    "io.emit_s": "s", "io.parse_s": "s", "io.td_bytes": "count",
    "trace.spans": "count", "trace.overhead_ratio": "ratio", "trace.solve_s": "s",
}


class Env:
    """The imported package, the workload's graphs and the tracer, if any."""

    def __init__(self, workload):
        for name in [m for m in sys.modules if m == "twdecomp" or m.startswith("twdecomp.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("twdecomp")
        # Load every submodule, so that tracing covers every namespace.
        for info in pkgutil.iter_modules(self.pkg.__path__):
            if info.name != "__main__":
                importlib.import_module(f"twdecomp.{info.name}")
        self.io = sys.modules["twdecomp.io"]
        self.validate = sys.modules["twdecomp.validate"]
        corpus = sys.modules["twdecomp.corpus"]
        self.graphs = workload.build(corpus)
        self.tracer = None
        small = corpus.cycle_graph(12)
        for job in workload.jobs:
            res = self.pkg.decompose(small, job.algo, **job.kwargs())
            self.validate.check_tree_decomposition(small, self.io.parse_decomposition(
                self.io.emit_decomposition(res.outcome.decomposition, small.n)).decomposition)


def setup(workload) -> tuple[float, float, Env]:
    """(calibrated seconds, wall seconds, Env) of one import + corpus + warm-up."""
    gc.collect()
    with SpeedMeter() as meter:
        t0 = time.perf_counter()
        env = Env(workload)
        t1 = time.perf_counter()
    wall, calibrated = meter.region(t0, t1)
    return calibrated, wall, env


def run_job(env: Env, job: Job) -> dict:
    """One job: timed decompose, then timed emit -> parse -> check.

    Untraced, the check is repeated until VERIFY_MIN_S has passed, so that
    the millisecond checks of small outputs are timed over more than one tick
    of host noise; its time is per repetition. Traced, it runs once, so that
    the per-layer counts repeat exactly.
    """
    verify_min_s = VERIFY_MIN_S if env.tracer is None else 0.0
    graph = env.graphs[job.graph][0]
    t0 = time.perf_counter()
    res = env.pkg.decompose(graph, job.algo, graph_name=job.graph, **job.kwargs())
    t1 = time.perf_counter()
    td = res.outcome.decomposition
    reps = 0
    while True:
        text = env.io.emit_decomposition(td, graph.n)
        parsed = env.io.parse_decomposition(text)
        violations = env.validate.check_tree_decomposition(graph, parsed.decomposition)
        reps += 1
        t2 = time.perf_counter()
        if t2 - t1 >= verify_min_s:
            break
    rep = res.report
    return {"times": (t0, t1, t2), "verify_reps": reps, "result": res, "text": text,
            "violations": len(violations), "k_used": res.k_used,
            "width_plus_one": rep.width_plus_one, "separator_calls": rep.separator_calls,
            "flow_augmentations": rep.flow_augmentations,
            "td_sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_passes(env, jobs, rng, budget_s, min_passes, keep_first) -> list[list[dict]]:
    """Passes over the job list until the next one would overrun the budget.

    Returns, per pass, one record per job in job-list order (traced: a dict
    of those records and the pass's spans); failed jobs hold an "error". Only
    the first pass keeps the outputs when ``keep_first``.
    """
    passes = []
    meter = SpeedMeter(during=env.tracer is None)
    start = time.perf_counter()
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() - start + last <= budget_s:
        began = time.perf_counter()
        order = list(range(len(jobs)))
        rng.shuffle(order)
        records = [None] * len(jobs)
        for i in order:
            if env.tracer is not None:
                env.tracer.job = i
            gc.collect()
            try:
                with meter:
                    rec = run_job(env, jobs[i])
            except Exception:
                rec = {"error": traceback.format_exc()}
                print(f"job {jobs[i].id} raised:\n{rec['error']}", file=sys.stderr)
            if "error" not in rec:
                t0, t1, t2 = rec.pop("times")
                rec["wall_solve_s"], rec["solve_s"] = meter.region(t0, t1)
                reps = rec.pop("verify_reps")
                rec["wall_verify_s"], rec["verify_s"] = (
                    t / reps for t in meter.region(t1, t2))
            if not (keep_first and not passes):
                rec.pop("result", None)
                rec.pop("text", None)
            records[i] = rec
        if env.tracer is not None:
            spans = env.tracer.take()
            records = {"jobs": records, "spans": spans}
        passes.append(records)
        last = time.perf_counter() - began
    return passes


def parse_td(text: str):
    """Bags and tree edges of ``.td`` text, read without the package's parser."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    head = lines[0]
    if head[:2] != ["s", "td"] or len(head) != 5:
        raise ValueError(f"bad solution line {head}")
    nbags, max_bag, n = map(int, head[2:])
    bags = {}
    edges = []
    for parts in lines[1:]:
        if parts[0] == "b":
            bags[int(parts[1]) - 1] = {int(v) - 1 for v in parts[2:]}
        else:
            edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
    if sorted(bags) != list(range(nbags)):
        raise ValueError("bag ids are not 1..#bags")
    if max((len(b) for b in bags.values()), default=0) != max_bag:
        raise ValueError("declared max bag size is wrong")
    return n, [bags[i] for i in range(nbags)], edges


def td_depth(nbags: int, edges) -> int:
    tree = nx.Graph(edges)
    tree.add_nodes_from(range(nbags))
    return max(nx.single_source_shortest_path_length(tree, 0).values(), default=0)


def check_output(job: Job, tw_bound: int, graph, rec: dict) -> list[str]:
    """Independent checks of one job's output; returns the problems found."""
    problems = []
    res = rec["result"]
    if rec["violations"]:
        problems.append(f"check_tree_decomposition found {rec['violations']} violations")
    n, bags, edges = parse_td(rec["text"])
    if n != graph.n:
        problems.append(f".td declares {n} vertices, graph has {graph.n}")
    tree = nx.Graph(edges)
    tree.add_nodes_from(range(len(bags)))
    if not nx.is_tree(tree):
        problems.append("bags do not form a tree")
    holders: dict[int, list[int]] = {}
    for i, bag in enumerate(bags):
        for v in bag:
            holders.setdefault(v, []).append(i)
    if set(holders) != set(range(graph.n)):
        problems.append("bags do not cover exactly the vertices")
    for u, v in graph.edges():
        if not set(holders.get(u, ())) & set(holders.get(v, ())):
            problems.append(f"edge ({u}, {v}) is in no bag")
            break
    for v, where in holders.items():
        if len(where) > 1 and not nx.is_connected(tree.subgraph(where)):
            problems.append(f"bags holding vertex {v} are not connected")
            break
    width_plus_one = max((len(b) for b in bags), default=0)
    if width_plus_one != rec["width_plus_one"]:
        problems.append(f"report says width+1 {rec['width_plus_one']}, .td has {width_plus_one}")
    chordal = nx.Graph(res.outcome.triangulation.chordal.edges())
    chordal.add_nodes_from(range(graph.n))
    if not nx.is_chordal(chordal):
        problems.append("networkx finds the triangulation not chordal")
    if any(not chordal.has_edge(u, v) for u, v in graph.edges()):
        problems.append("triangulation drops an input edge")
    cap = width_bound(job.algo, rec["k_used"])
    if cap is not None and width_plus_one > cap:
        problems.append(f"width+1 {width_plus_one} above the bound {cap} at k={rec['k_used']}")
    if job.mode == "search" and rec["k_used"] - 1 > tw_bound:
        problems.append(f"k_used {rec['k_used']} rejects k-1 <= treewidth bound {tw_bound}")
    return problems


def gate(workload, env, passes) -> tuple[int, int, dict]:
    """Check every job run: the first pass in full, later ones against it.

    Returns (attempted, failed, problems by job id).
    """
    first = passes[0]
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    same = ("k_used", "width_plus_one", "separator_calls", "flow_augmentations", "td_sha256")
    for p, records in enumerate(passes):
        for i, (job, rec) in enumerate(zip(workload.jobs, records)):
            attempted += 1
            if "error" in rec:
                found = ["raised"]
            elif p == 0:
                graph, tw_bound = env.graphs[job.graph]
                found = check_output(job, tw_bound, graph, rec)
            elif "error" in first[i]:
                found = ["the first pass raised"]
            else:
                found = [f"{key} differs from the first pass" for key in same
                         if rec[key] != first[i][key]]
            if found:
                failed += 1
                problems.setdefault(job.id, []).extend(found)
    return attempted, failed, problems


def median_sums(workload, passes, prefix="") -> dict:
    """Per-job medians over passes, summed over the job list."""
    jobs = workload.jobs

    def medians(key):
        return [statistics.median(p[i][prefix + key] for p in passes) for i in range(len(jobs))]

    solve = medians("solve_s")
    verify = medians("verify_s")
    out = {"solve_s": sum(solve), "job_max_s": max(solve), "verify_s": sum(verify)}
    for algo in ALGOS:
        out[f"solve_s.{algo}"] = sum(t for t, j in zip(solve, jobs) if j.algo == algo)
    out["per_job_solve_s"] = dict(zip((j.id for j in jobs), solve))
    return out


def provenance(workload, seed) -> dict:
    src = ROOT / "src" / "twdecomp"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = done.stdout.strip() or revision
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                    if ln.startswith("model name")), cpu)
    return {"workload": workload.name, "why": workload.why, "seed": seed,
            "corpus_seed": workload.corpus_seed, "python": platform.python_version(),
            "cpu": cpu, "cpu_count": os.cpu_count(), "git_revision": revision,
            "src_sha256": digest.hexdigest(), "networkx": nx.__version__}


def load_anchors() -> dict:
    return json.loads(ANCHORS.read_text()) if ANCHORS.exists() else {}


def anchor_changes(workload, first) -> tuple[int, dict]:
    """Jobs whose .td bytes differ from the anchors, and every field that differs."""
    anchors = load_anchors().get(workload.name, {})
    td_changed = 0
    changed = {}
    for job, rec in zip(workload.jobs, first):
        ref = anchors.get(job.id)
        if ref is None or "error" in rec:
            td_changed += 1
            changed[job.id] = ["no anchor" if ref is None else "raised"]
            continue
        fields = [k for k, v in ref.items() if rec[k] != v]
        td_changed += "td_sha256" in fields
        if fields:
            changed[job.id] = fields
    return td_changed, changed


def per_layer(workload, names, traced, first, problems) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, and each layer's self-time share.

    Counts come from the first traced pass and must repeat in every other and
    agree with the AlgoReport sums; times are medians over the traced passes.
    """
    per_pass = [layer_metrics(names, p["spans"]) for p in traced]
    trouble = problems.setdefault("trace", [])
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
            continue
        metrics[key] = values[0]
        if any(v != values[0] for v in values):
            trouble.append(f"{key} differs between traced passes")
    for p, m in zip(traced, per_pass):
        if m["flow.calls"] != sum(r["separator_calls"] for r in p["jobs"]):
            trouble.append("flow.calls differs from the sum of AlgoReport.separator_calls")
        if m["flow.augmentations"] != sum(r["flow_augmentations"] for r in p["jobs"]):
            trouble.append("flow.augmentations differs from the sum of "
                           "AlgoReport.flow_augmentations")
    if metrics["flow.max_augs_over_bound"] > 1:
        trouble.append("a flow call made more than bound+1 augmentations")
    if not trouble:
        del problems["trace"]

    parsed = [parse_td(r["text"]) for r in first]
    wall = median_sums(workload, [p["jobs"] for p in traced], "wall_")["solve_s"]
    metrics["triangulate.bags"] = sum(len(bags) for _, bags, _ in parsed)
    metrics["triangulate.td_depth"] = max(td_depth(len(bags), edges)
                                          for _, bags, edges in parsed)
    metrics["trace.solve_s"] = wall
    layers = {
        "flow": metrics["flow.self_s"] + metrics["flow.3way_self_s"],
        "separators": metrics["separators.self_s"],
        "graph": metrics["graph.clique_s"] + metrics["graph.induced_s"]
        + metrics["graph.components_s"],
        "triangulate": metrics["triangulate.self_s"],
        "validate": metrics["validate.chordal_s"] + metrics["validate.clique_number_s"],
    }
    return metrics, {k: v / wall for k, v in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twdecomp" / "__init__.py").is_file():
        print(f"error: no twdecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    setups = [setup(workload) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(t for t, _, _ in setups)
    wall_setup_s = statistics.median(w for _, w, _ in setups)
    env = setups[-1][2]
    del setups
    gc.collect()
    prov = provenance(workload, args.seed)
    print("provenance:", json.dumps(prov), flush=True)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(env, workload.jobs, rng, budget, 1 if args.trace else 3, True)
    traced = []
    names = []
    unwrapped = []
    if args.trace:
        env.tracer = Tracer()
        env.tracer.install()
        names = env.tracer.names
        unwrapped = env.tracer.unwrapped_references()
        traced = run_passes(env, workload.jobs, rng, budget, 1, False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, problems = gate(workload, env, plain + [p["jobs"] for p in traced])
    first = plain[0]
    td_changed, anchors_changed = anchor_changes(workload, first)
    if unwrapped:
        problems["trace"] = [f"unwrapped references: {unwrapped}"]

    summary, metrics, layer_share, times = {}, {}, {}, {}
    if not failed:
        times = median_sums(workload, plain)
        summary = {
            **{k: times[k] for k in ("solve_s", *(f"solve_s.{a}" for a in ALGOS),
                                     "job_max_s", "verify_s")},
            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
            "width_plus_one_sum": sum(r["width_plus_one"] for r in first),
            "k_used_sum": sum(r["k_used"] for j, r in zip(workload.jobs, first)
                              if j.mode == "search"),
            "failed_ratio": f"{failed}/{attempted}",
            "wall": {**{k: v for k, v in median_sums(workload, plain, "wall_").items()
                        if k != "per_job_solve_s"}, "setup_s": wall_setup_s}}
        if args.trace:
            metrics, layer_share = per_layer(workload, names, traced, first, problems)
            metrics["triangulate.td_changed"] = td_changed
            metrics["trace.overhead_ratio"] = (
                median_sums(workload, [p["jobs"] for p in traced])["solve_s"] / times["solve_s"])
        else:
            metrics = {k: summary[k] for k in END_TO_END}
    correct = not problems and not failed
    units = PER_LAYER if args.trace else END_TO_END

    record = {
        "provenance": prov, "trace": args.trace, "passes": len(plain),
        "traced_passes": len(traced), "attempted": attempted, "failed": failed,
        "problems": problems, "summary": summary, "metrics": metrics,
        "layer_share_of_traced_solve": layer_share,
        "td_changed": td_changed, "anchors_changed": anchors_changed,
        "jobs": {j.id: {k: r.get(k) for k in ("k_used", "width_plus_one",
                                              "separator_calls", "flow_augmentations",
                                              "td_sha256")}
                 for j, r in zip(workload.jobs, first)},
        "per_job_solve_s": times.get("per_job_solve_s", {}),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with gzip.open(OUT_DIR / f"{stem}.spans.jsonl.gz", "wt", compresslevel=1) as out:
            out.write(json.dumps({"functions": names, "jobs": [j.id for j in workload.jobs],
                                  "fields": ["pass", "function", "start_ns", "end_ns",
                                             "parent", "job", "note"]}) + "\n")
            for p, passed in enumerate(traced):
                for span in passed["spans"]:
                    out.write(json.dumps([p, *span]) + "\n")

    if problems:
        print("problems:", json.dumps(problems), file=sys.stderr)
    print("summary:", json.dumps(summary), flush=True)
    if layer_share:
        print("layer share of traced solve_s:", json.dumps(layer_share), flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items() if k in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
