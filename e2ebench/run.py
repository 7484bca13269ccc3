#!/usr/bin/env python3
"""End-to-end benchmark of aqo: the paper's tables and the optimizer service.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program in
Release under .bench_build/ (the repository's own CMake project, plus the
benchmark's benchkit package); later runs reuse that build.

Workloads (README.md says why each exists):
  gap_tables  the E1 E3 E5 E6 E7 E8 table binaries, one after another
  serve_hot   cache hits through aqo_serve
  serve_cold  cache misses that write through aqo_serve

--trace 0 measures with tracing off and prints the end-to-end metrics;
--trace 1 makes the separate traced run and prints the per-layer metrics.
Every output is checked; the last stdout line is one JSON object with
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tables

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
AQO_BUILD = os.path.join(BUILD, "aqo")
KIT_BUILD = os.path.join(BUILD, "benchkit")
BUILD_JOBS = "3"

WORKLOADS = ("gap_tables", "serve_hot", "serve_cold")
# Timed requests in a traced serve run: enough for serve_cold to fill the
# plan cache past its budget, so inserts evict.
TRACE_REQUESTS = {"serve_hot": 8000, "serve_cold": 8000}
# Set-ups measured per run; benchkit's kSetupReps (serve.h) is the same.
WARMUP_REPS = 5
# benchkit's time beyond the timed window: five set-ups, the oracle pass
# over every response and, when traced, the three in-process replays.
BENCHKIT_MARGIN_S = 150

# The gated end-to-end metrics (BENCHMARK.json). Tail latency and
# throughput are measured and printed on every run but not gated: on a
# shared 4-core VM their spread over ten runs (serve_hot p90 35%,
# throughput 46%, while the hypervisor's steal share went from 0.6% to 9%)
# exceeds the largest bound a benchmark may set. A failed request or pass
# counts as +infinity, which JSON cannot carry: FAILED_VALUE.
END_TO_END = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
]
FAILED_VALUE = 1e9

PER_LAYER = [
    ("io.parse_us", "us"),
    ("io.encode_us", "us"),
    ("io.request_bytes", "bytes"),
    ("fingerprint.canon_us", "us"),
    ("fingerprint.map_us", "us"),
    ("plan_cache.probe_us", "us"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.insert_us", "us"),
    ("plan_cache.evictions", "count"),
    ("persist.append_us", "us"),
    ("persist.bytes_per_insert", "bytes"),
    ("persist.fsyncs", "count"),
    ("persist.recover_ms", "ms"),
    ("service.overhead_us", "us"),
    ("optimizer.qon_dp_us", "us"),
    ("optimizer.qon_ii_us", "us"),
    ("optimizer.qoh_ii_us", "us"),
    ("optimizer.evaluations", "count"),
    ("optimizer.qon_ii_s", "s"),
    ("optimizer.qon_sa_s", "s"),
    ("optimizer.qon_dp_s", "s"),
    ("optimizer.qon_greedy_s", "s"),
    ("optimizer.qon_random_s", "s"),
    ("cost_eval.qon_ns_per_eval", "ns"),
    ("cost_eval.qoh_ns_per_eval", "ns"),
    ("cost_eval.naive_s", "s"),
    ("fast_eval.repricing_share", "ratio"),
    ("qoh.decomp_s", "s"),
    ("qoh.decomp.pipeline_evals", "count"),
    ("reductions.build_s", "s"),
    ("reductions.bounds_s", "s"),
    ("reductions.witness_s", "s"),
    ("graph.generate_s", "s"),
    ("sqo.solve_s", "s"),
    ("sqo.reduce_s", "s"),
    ("serve.server_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.attributed_share", "ratio"),
    ("oracle.inexact_costs", "count"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def run_logged(cmd, log_path):
    with open(log_path, "a") as out:
        out.write("$ %s\n" % " ".join(cmd))
        out.flush()
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        raise BenchError("command failed (%d): %s\n%s" % (code, " ".join(cmd), tail))


def build():
    """Builds the table binaries, aqo_serve and benchkit in Release."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("%s holds no aqo source tree to build" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(AQO_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", AQO_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log_path)
    targets = [binary for _, binary, _ in tables.TABLE_SET] + ["aqo_serve"]
    run_logged(["cmake", "--build", AQO_BUILD, "-j", BUILD_JOBS, "--target"] +
               targets, log_path)
    if not os.path.isfile(os.path.join(KIT_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(HERE, "benchkit"), "-B", KIT_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release", "-DAQO_BUILD=" + AQO_BUILD],
                   log_path)
    run_logged(["cmake", "--build", KIT_BUILD, "-j", BUILD_JOBS], log_path)
    return {
        "bench": os.path.join(AQO_BUILD, "bench"),
        "serve": os.path.join(AQO_BUILD, "tools", "aqo_serve"),
        "benchkit": os.path.join(KIT_BUILD, "benchkit"),
    }


# --- helpers ---------------------------------------------------------------

def spawn_timed(cmd, stdout_path):
    """Runs cmd to completion; returns (wall_s, cpu_s, maxrss_kb, exit, stderr)."""
    err_path = stdout_path + ".err"
    with open(stdout_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as f:
        stderr = f.read()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stderr


def run_benchkit(bins, args, seconds=0.0):
    proc = subprocess.run([bins["benchkit"]] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=seconds + BENCHKIT_MARGIN_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("benchkit %s failed (%d): %s" %
                         (args[0], proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- gap_tables ------------------------------------------------------------

def table_pass(bins, workdir, expected):
    """One pass of the table set; returns per-binary results and the checks."""
    result = {"wall": 0.0, "cpu": 0.0, "rss_kb": 0, "checked": 0,
              "failures": [], "stdout": {}, "binary_wall": {}}
    for exp, binary, args in tables.TABLE_SET:
        path = os.path.join(workdir, binary + ".out")
        wall, cpu, rss, code, stderr = spawn_timed(
            [os.path.join(bins["bench"], binary)] + args, path)
        with open(path) as f:
            text = f.read()
        result["wall"] += wall
        result["cpu"] += cpu
        result["rss_kb"] = max(result["rss_kb"], rss)
        result["binary_wall"][binary] = wall
        result["stdout"][binary] = text
        checked, failures = tables.check_binary(binary, text, expected)
        # A clean exit with empty stderr is one more operation.
        if code != 0 or stderr.strip():
            failures.append("%s (%s) exited %d: %s" % (binary, exp, code, stderr[-300:]))
        result["checked"] += checked + 1
        result["failures"] += failures
    return result


def warmup_pass(bins, workdir):
    """The table set's set-up: one untimed run of its three short tables
    (E3, E5, E8, well under a second together), which loads the binaries
    and warms the caches before the first timed pass. Process start-up
    alone (a few ms) moved 80% with the machine's load. Each clean exit is
    an operation, as in a timed pass."""
    result = {"wall": 0.0, "checked": 0, "failures": []}
    for exp, binary, args in tables.TABLE_SET:
        if binary not in ("qoh_gap", "sparse_qon", "sqocp"):
            continue
        wall, _, _, code, stderr = spawn_timed(
            [os.path.join(bins["bench"], binary)] + args,
            os.path.join(workdir, "warmup.out"))
        result["wall"] += wall
        result["checked"] += 1
        if code != 0 or stderr.strip():
            result["failures"].append("%s (%s) exited %d during set-up: %s" %
                                      (binary, exp, code, stderr[-300:]))
    return result


def gap_tables(bins, seed, seconds, trace, workdir):
    del seed  # the tables run with their own seeds, so digests can be checked
    expected = tables.load_expected()
    if not trace:
        setups = [warmup_pass(bins, workdir) for _ in range(WARMUP_REPS)]
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(table_pass(bins, workdir, expected))
            if time.perf_counter() - start >= seconds:
                break
        timed_wall = time.perf_counter() - start
        walls = [p["wall"] for p in passes]
        failures = [f for p in setups + passes for f in p["failures"]]
        attempted = sum(p["checked"] for p in setups + passes)
        metrics = {
            "setup_s": statistics.median(p["wall"] for p in setups),
            "p50_ms": statistics.median(walls) * 1e3,
            "cpu_ms_per_op": statistics.median(p["cpu"] for p in passes) * 1e3,
            "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024.0,
        }
        lines = [
            "gap_tables: %d passes of the table set, %d operations (table rows, "
            "stdout digests, exits), %d failed" % (len(passes), attempted, len(failures)),
            "  setup_s         %.4f s   (median of %d warm-ups)" %
            (metrics["setup_s"], WARMUP_REPS),
            "  tables_s        %.3f s   (median pass; slowest %.3f; n=%d)" %
            (metrics["p50_ms"] / 1e3, max(walls), len(walls)),
            "  throughput      %.4f passes/s" % (len(passes) / timed_wall),
            "  cpu_s           %.3f s   (per pass, median)" % (metrics["cpu_ms_per_op"] / 1e3),
            "  peak_rss_mb     %.1f MB" % metrics["peak_rss_mb"],
            "  error_rate      %.6f" % (len(failures) / max(attempted, 1)),
        ]
        return attempted, len(failures), failures, metrics, lines

    # Traced run: one untraced pass for the printed cells and their time,
    # then the traced replay of E1, E6, E7 and E8, which must reproduce them.
    table = table_pass(bins, workdir, expected)
    spans = os.path.join(BUILD, "trace", "gap_tables.spans.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    replay = run_benchkit(bins, ["tables", "--spans=" + spans])
    failures = list(table["failures"])
    attempted = table["checked"]
    printed = {}
    for binary, names in (("qon_gap", ["E1"]), ("sparse_qoh", ["E6"]),
                          ("optimizers", ["E7a", "E7b"]), ("sqocp", ["E8"])):
        for name, (_, _, rows) in zip(names, tables.parse_tables(table["stdout"][binary])):
            printed[name] = [r[:-1] for r in rows] if name == "E8" else rows
    for name, rows in replay["rows"].items():
        want = printed.get(name, [])
        for i in range(max(len(rows), len(want))):
            attempted += 1
            got = rows[i] if i < len(rows) else None
            if i >= len(want) or got != want[i]:
                failures.append("replay parity %s row %d: printed %s, replayed %s" %
                                (name, i, want[i] if i < len(want) else None, got))
    binaries_wall = sum(table["binary_wall"][b]
                        for b in ("qon_gap", "sparse_qoh", "optimizers", "sqocp"))
    replay_wall = sum(replay["wall_s"].values())
    metrics = layer_metrics(replay, requests=0)
    metrics["trace.overhead_pct"] = 100.0 * (replay_wall - binaries_wall) / binaries_wall
    lines = ["gap_tables traced: replayed %d tables in %.3f s against %.3f s "
             "untraced; %d failed" % (len(replay["rows"]), replay_wall,
                                      binaries_wall, len(failures)),
             "  spans: %s" % os.path.relpath(spans, ROOT)]
    return attempted, len(failures), failures, metrics, lines


# --- serve_* ---------------------------------------------------------------

def layer_metrics(replay, requests):
    """Per-layer metrics from a replay's span self times and counters."""
    layers = replay.get("layers", {})
    evals = replay.get("evaluations", {})

    def self_ns(name):
        return layers.get(name, [0, 0])[0]

    def per_call_us(name):
        ns, calls = layers.get(name, [0, 0])
        return ns / calls / 1e3 if calls else 0.0

    def per_request_us(name):
        return self_ns(name) / requests / 1e3 if requests else 0.0

    def ns_per_eval(family):
        names = ["optimizer.%s.%s" % (family, o) for o in ("ii", "sa", "random")]
        count = sum(evals.get(n, 0) for n in names)
        return sum(self_ns(n) for n in names) / count if count else 0.0

    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update({
        "io.parse_us": per_request_us("io.parse"),
        "io.encode_us": per_request_us("io.encode"),
        "io.request_bytes": replay.get("request_bytes", 0) / requests if requests else 0.0,
        "fingerprint.canon_us": per_request_us("fingerprint.canon"),
        "fingerprint.map_us": per_request_us("fingerprint.map"),
        "plan_cache.probe_us": per_call_us("plan_cache.probe"),
        "plan_cache.insert_us": per_call_us("plan_cache.insert"),
        "persist.append_us": per_call_us("persist.append"),
        "optimizer.qon_dp_us": per_call_us("optimizer.qon.dp"),
        "optimizer.qon_ii_us": per_call_us("optimizer.qon.ii"),
        "optimizer.qoh_ii_us": per_call_us("optimizer.qoh.ii"),
        "optimizer.evaluations": float(sum(evals.values())),
        "optimizer.qon_ii_s": self_ns("optimizer.qon.ii") / 1e9,
        "optimizer.qon_sa_s": self_ns("optimizer.qon.sa") / 1e9,
        "optimizer.qon_dp_s": self_ns("optimizer.qon.dp") / 1e9,
        "optimizer.qon_greedy_s": self_ns("optimizer.qon.greedy") / 1e9,
        "optimizer.qon_random_s": self_ns("optimizer.qon.random") / 1e9,
        "cost_eval.qon_ns_per_eval": ns_per_eval("qon"),
        "cost_eval.qoh_ns_per_eval": ns_per_eval("qoh"),
        "cost_eval.naive_s": self_ns("cost_eval.naive") / 1e9,
        "qoh.decomp_s": self_ns("qoh.decomp") / 1e9,
        "qoh.decomp.pipeline_evals": float(replay.get("pipeline_evals", 0)),
        "reductions.build_s": self_ns("reductions.build") / 1e9,
        "reductions.bounds_s": self_ns("reductions.bounds") / 1e9,
        "reductions.witness_s": self_ns("reductions.witness") / 1e9,
        "graph.generate_s": self_ns("graph.generate") / 1e9,
        "sqo.solve_s": self_ns("sqo.solve") / 1e9,
        "sqo.reduce_s": self_ns("sqo.reduce") / 1e9,
    })
    candidates = replay.get("fast_candidates", 0)
    if candidates:
        m["fast_eval.repricing_share"] = replay.get("fast_repricings", 0) / candidates
    return m


def read_server_log(path):
    """The traced server's plan-cache totals (less what it recovered at
    start-up) and its qo.serve.request_us histogram; empty when a dying
    server wrote none."""
    stats, request_us, recovered = {}, {}, 0
    if not os.path.isfile(path):
        return stats, request_us
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("type") == "plan_cache_stats":
                stats = record
            elif record.get("type") == "persist_recovery":
                recovered = record["entries_loaded"]
            elif record.get("type") == "histogram_summary":
                request_us = record["histograms"].get("qo.serve.request_us", {})
    if stats:
        stats["inserts"] -= recovered
    return stats, request_us


def serve(bins, workload, seed, seconds, trace, workdir):
    args = ["serve", "--server=" + bins["serve"], "--workload=" + workload,
            "--seed=%d" % seed, "--seconds=%g" % seconds, "--workdir=" + workdir]
    if trace:
        args += ["--trace=1", "--count=%d" % TRACE_REQUESTS[workload]]
    out = run_benchkit(bins, args, seconds)
    failures = list(out["reasons"]) if out["failed"] else []
    if out["failed"] and not failures:
        failures = ["%d failed requests" % out["failed"]]
    # The server's clean exit (shutdown snapshot included) is one operation.
    attempted = out["attempted"] + 1
    failed = out["failed"]
    if out["server_exit"] != 0:
        failures.append("aqo_serve exited %d" % out["server_exit"])
        failed += 1
    if not trace:
        def latency_ms(value_us):
            return FAILED_VALUE if value_us is None else value_us / 1e3

        ok = out["timed_ok"]
        metrics = {
            "setup_s": statistics.median(out["setup_s"]),
            "p50_ms": latency_ms(out["p50_us"]),
            "cpu_ms_per_op": out["server_cpu_s"] * 1e3 / ok if ok else FAILED_VALUE,
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        }
        lines = [
            "%s: %d timed requests in %.2f s, %d operations, %d failed; "
            "%d dp plans priced within tolerance only" %
            (workload, out["timed_sent"], out["wall_s"], attempted, failed,
             out["inexact_costs"]),
            "  setup_s         %.4f s   (median of %d set-ups)" %
            (metrics["setup_s"], len(out["setup_s"])),
            "  req_p50_us      %.1f us  (n=%d)" % (metrics["p50_ms"] * 1e3, out["timed_sent"]),
            "  req_p90_us      %.1f us" % (latency_ms(out["p90_us"]) * 1e3),
            "  req_p99_us      %.1f us" % (latency_ms(out["p99_us"]) * 1e3),
            "  throughput_rps  %.1f 1/s" % (ok / out["wall_s"] if out["wall_s"] else 0.0),
            "  cpu_s           %.3f s   (aqo_serve, timed window; %.1f us per request)" %
            (out["server_cpu_s"], metrics["cpu_ms_per_op"] * 1e3),
            "  peak_rss_mb     %.1f MB" % metrics["peak_rss_mb"],
            "  error_rate      %.6f" % (failed / max(attempted, 1)),
        ]
        return attempted, failed, failures, metrics, lines

    replay = out["trace"]
    # max(): a server that died before the timed run leaves no requests.
    requests = max(replay["requests"], 1)
    stats, request_us = read_server_log(os.path.join(workdir, "server.jsonl"))
    timed = replay["cache_timed"]
    for key in ("hits", "misses", "inserts", "evictions"):
        attempted += 1
        if stats.get(key) != timed[key]:
            failed += 1
            failures.append("replay parity: server plan cache %s=%s, replay %s" %
                            (key, stats.get(key), timed[key]))
    metrics = layer_metrics(replay, requests)
    probes = timed["hits"] + timed["misses"]
    metrics["plan_cache.hit_ratio"] = timed["hits"] / probes if probes else 0.0
    metrics["plan_cache.evictions"] = float(timed["evictions"])
    metrics["persist.bytes_per_insert"] = (replay["append_bytes"] / replay["appends"]
                                           if replay["appends"] else 0.0)
    metrics["persist.fsyncs"] = float(replay["fsyncs"])
    metrics["persist.recover_ms"] = replay["recover_ms"]
    layers = replay["layers"]
    in_batch = sum(v[0] for k, v in layers.items()
                   if k.startswith("optimizer.") or k in (
                       "fingerprint.canon", "plan_cache.probe", "plan_cache.insert",
                       "persist.append", "fingerprint.map"))
    metrics["service.overhead_us"] = (replay["batch_ns"] - in_batch) / requests / 1e3
    attributed = (sum(v[0] for k, v in layers.items() if k != "request") /
                  requests / 1e3 + metrics["service.overhead_us"])
    server_us = request_us["sum_us"] / request_us["count"] if request_us.get("count") else 0.0
    metrics["serve.server_us"] = server_us
    metrics["serve.transport_us"] = out["mean_us"] - server_us
    metrics["serve.unattributed_us"] = server_us - attributed
    metrics["serve.attributed_share"] = attributed / server_us if server_us else 0.0
    metrics["oracle.inexact_costs"] = float(out["inexact_costs"])
    metrics["trace.overhead_pct"] = (100.0 * (replay["traced_ns"] - replay["untraced_ns"]) /
                                     max(replay["untraced_ns"], 1))
    spans = os.path.join(BUILD, "trace", workload + ".spans.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    shutil.copyfile(os.path.join(workdir, "spans.tsv"), spans)
    lines = ["%s traced: %d requests replayed in-process, %d operations, %d failed" %
             (workload, requests, attempted, failed),
             "  server %.1f us per request, attributed %.1f us (%.1f%%)" %
             (server_us, attributed, 100.0 * metrics["serve.attributed_share"]),
             "  spans: %s" % os.path.relpath(spans, ROOT)]
    return attempted, failed, failures, metrics, lines


# --- main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bins = build()
    except (BenchError, OSError) as err:
        log("e2ebench: build failed: %s" % err)
        return 1

    workdir = os.path.join(BUILD, "run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.workload == "gap_tables":
            attempted, failed, failures, metrics, lines = gap_tables(
                bins, args.seed, args.seconds, args.trace, workdir)
        else:
            attempted, failed, failures, metrics, lines = serve(
                bins, args.workload, args.seed, args.seconds, args.trace, workdir)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        log("e2ebench: %s failed: %s" % (args.workload, err))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    for line in lines:
        print(line)
    for failure in failures[:10]:
        print("  FAILED: " + failure)
    for name, unit in names:
        print("  %-28s %.6g %s" % (name, metrics[name], unit))
    result = {
        "correct": failed == 0 and not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
