"""Benchmark of the continuous multi-query matcher.

    python3 perfbench/run.py --workload snb --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Load model: closed loop, one client.  The ordered update stream is replayed
as fast as the engine accepts it; each update is sent when the previous
``process_update`` call has returned.

A run generates its input (see :mod:`workloads`) from ``--seed`` and
replays it a fixed number of times per 10 s of ``--seconds``, each time in a
fresh process (``replay.py``).  Every time metric is corrected for the speed
of the shared host while it was measured (see :mod:`hostspeed`) and is a
median over replays.  Every replay's
``(t, qid)`` event stream is compared with the one
``GraphDBEngine(exec_latency_us=0)`` produces on the same input — an engine
that shares no trie, view, join or assembler code with TRIC — and every
replay's work fingerprint (join counters, events, state rows) must equal
that of every other replay, in this run and in earlier runs of the same
code, workload and seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
input once untraced and once with the span wrappers of :mod:`tracing`
installed (and, for a workload with ``spark``, runs it through the Spark
operator in ``spark_job.py``), and prints the per-layer metrics; the traced
replay's
``process_update`` spans must add up to ``run_stream``'s own engine clock,
and no answering-phase span may lie outside one.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when an output check fails.  Run
records, fingerprints and spans go to ``.perfbench-out/`` at the repository
root.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import local_slowdowns  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: every run must end well inside the 180 s a caller allows
BUDGET_S = 170.0
#: largest share by which the summed ``process_update`` spans of a traced
#: replay may fall short of ``run_stream``'s own engine clock
TRACE_CLOCK_TOLERANCE = 0.05

END_TO_END = {
    "updates_per_s": "updates/s",
    "update_ms_p50": "ms",
    "update_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "graph.covering.s": "s",
    "core.trie.insert_s": "s",
    "engine.assembler.init_s": "s",
    "core.trie.nodes": "count",
    "core.trie.route_s": "s",
    "core.trie.roots_per_update": "roots/update",
    "engine.route_hit_ratio": "ratio",
    "core.tric.update_self_s": "s",
    "core.tric.descend_self_s": "s",
    "core.tric.descend_calls": "count",
    "core.tric.descend_useful_ratio": "ratio",
    "relational.view_add_s": "s",
    "relational.rows_offered": "count",
    "relational.rows_new": "count",
    "relational.view_new_ratio": "ratio",
    "relational.join_s": "s",
    "relational.build_s": "s",
    "relational.join_calls": "count",
    "relational.build_rows": "count",
    "relational.probe_rows": "count",
    "relational.out_rows": "count",
    "engine.assembler.self_s": "s",
    "engine.assembler.calls": "count",
    "engine.assembler.fire_ratio": "ratio",
    "engine.events": "count",
    "state.trie_rows": "count",
    "state.base_rows": "count",
    "state.canon_rows": "count",
    "state.index_rows": "count",
    "gc.s": "s",
    "gc.max_pause_ms": "ms",
    "gc.gen2_collections": "count",
    "engine.runner.overhead_s": "s",
    "spark_ops.session_s": "s",
    "spark_ops.input_s": "s",
    "spark_ops.job_s": "s",
    "spark_ops.overhead_s": "s",
    "trace.answer_s": "s",
    "trace.overhead_ratio": "ratio",
}


class CheckFailed(RuntimeError):
    """A replay, the reference or the tracer produced an unusable result."""


# -- processes -----------------------------------------------------------
def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _group_members(pgid: int) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry.name))
    return pids


def _reap_group(pgid: int) -> None:
    """Stop whatever the child left in its process group and wait for it."""
    end = time.monotonic() + 30
    sig = signal.SIGTERM
    while _group_members(pgid):
        if time.monotonic() > end - 10:
            sig = signal.SIGKILL
        if time.monotonic() > end:
            raise CheckFailed(f"processes of group {pgid} did not exit")
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.2)


def run_child(script: str, args: list[str], deadline: float) -> None:
    """Run one benchmark child in a fresh process and its own session, and
    wait for it and for everything it started."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    failure = ""
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        failure = f"{script} exceeded the run budget"
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0 and not failure:
        tail = (err or b"").decode(errors="replace")[-3000:]
        failure = f"{script} exited with {proc.returncode}:\n{tail}"
    if failure:
        raise CheckFailed(failure)


def load_result(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


# -- reference and checks ------------------------------------------------
def reference_events(path: Path, work: Path, deadline: float) -> list[tuple]:
    """Sorted events of ``GraphDBEngine(exec_latency_us=0)`` on the input,
    computed after all timed work is done.  Cached on disk under the hash of
    the input file and of the program's sources."""
    h = hashlib.sha256(path.read_bytes())
    h.update(code_hash().encode())
    cache = OUT / "refs" / f"{h.hexdigest()[:24]}.json"
    if not cache.exists():
        out = work / "reference.json"
        run_child("reference.py", ["--input", str(path), "--out", str(out)], deadline)
        cache.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(out, cache)
    return [tuple(e) for e in json.loads(cache.read_text())]


def check_events(events, processed: int, ref) -> str:
    """Empty when ``events`` equal the reference up to update ``processed``."""
    got = sorted(tuple(e) for e in events)
    want = [e for e in ref if e[0] < processed]
    if got == want:
        return ""
    missing = sorted(set(want) - set(got))[:5]
    extra = sorted(set(got) - set(want))[:5]
    return f"{len(got)} events vs {len(want)} expected; missing {missing}, extra {extra}"


def fingerprint(res: dict) -> dict:
    return {
        "processed": res["processed"],
        "events": len(res["events"]),
        "counters": res["counters"],
        "state": res["state"],
    }


def code_hash() -> str:
    """Hash of the program's sources."""
    h = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprints(w, seed: int, prints: list[dict]) -> list[str]:
    """Every replay of one input must do identical work, here and in earlier
    runs of the same code, workload and seed."""
    problems = []
    if any(fp != prints[0] for fp in prints[1:]):
        problems.append(f"replays of one input did different work: {prints}")
    params = hashlib.sha256(json.dumps(w.params(), sort_keys=True).encode())
    path = OUT / "fingerprints" / f"{w.name}-s{seed}-{params.hexdigest()[:8]}-{code_hash()}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != prints[0]:
            problems.append(
                f"work differs from an earlier run of this seed: {stored} vs {prints[0]}"
            )
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(prints[0], indent=1, sort_keys=True))
    return problems


# -- statistics ------------------------------------------------------------
def percentile(xs: list[float], q: float) -> float:
    """``q``-th percentile with linear interpolation between order statistics."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the run -----------------------------------------------------------------
#: set-up samples per untraced run (each replay gives one; set-up-only
#: children make up the rest)
SETUP_SAMPLES = 5


def replays_per_run(w, seconds: float) -> int:
    """``w.replays`` per 10 s of ``--seconds``, at least two.  The count does
    not depend on how fast the program runs, so a slower program is not
    measured with fewer samples."""
    return max(2, round(w.replays * seconds / 10.0))


def replay(w, path: Path, work: Path, tag: str, mode: str, deadline: float) -> dict:
    out = work / f"{tag}.json"
    args = ["--input", str(path), "--engine", w.engine, "--mode", mode, "--out", str(out)]
    if mode == "traced":
        # one span file per workload (the latest traced run): biogrid's
        # alone holds millions of spans
        spans = OUT / "spans" / f"{w.name}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    run_child("replay.py", args, deadline)
    return load_result(out)


def corrected_latencies(r: dict) -> list[float]:
    """A replay's per-update latencies, each divided by the host's slowdown
    around it (see :mod:`hostspeed`)."""
    slow = local_slowdowns(r["probe_s"], r["probe_at"], r["processed"])
    return [x / s for x, s in zip(r["latencies_s"], slow)]


def end_to_end(timed: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over replays of host-speed-corrected times."""
    lats = [corrected_latencies(r) for r in timed]
    return {
        "updates_per_s": statistics.median(ratio(len(x), sum(x)) for x in lats),
        "update_ms_p50": statistics.median(percentile(x, 50) * 1e3 for x in lats),
        "update_ms_p99": statistics.median(percentile(x, 99) * 1e3 for x in lats),
        "setup_s": statistics.median(x["setup_s"] / x["setup_slowdown"] for x in setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
    }


def per_layer(timed: dict, traced: dict, spark: dict | None) -> dict[str, float]:
    lay = traced["layers"]
    m = {name: lay[name] for name in (
        "graph.covering.s", "core.trie.insert_s", "engine.assembler.init_s",
        "core.trie.route_s", "core.tric.update_self_s", "core.tric.descend_self_s",
        "core.tric.descend_calls", "relational.view_add_s", "relational.rows_offered",
        "relational.rows_new", "relational.join_s", "relational.build_s",
        "relational.join_calls", "engine.assembler.self_s", "engine.assembler.calls",
        "engine.runner.overhead_s", "trace.answer_s",
    )}
    m["core.trie.nodes"] = traced["nodes"]
    m["core.trie.roots_per_update"] = ratio(lay["core.trie.roots"], lay["trace.updates"])
    m["engine.route_hit_ratio"] = ratio(traced["route_hits"], traced["processed"])
    m["core.tric.descend_useful_ratio"] = ratio(
        lay["core.tric.descend_useful"], lay["core.tric.descend_calls"]
    )
    m["relational.view_new_ratio"] = ratio(
        lay["relational.rows_new"], lay["relational.rows_offered"]
    )
    m["engine.assembler.fire_ratio"] = ratio(
        lay["engine.assembler.fires"], lay["engine.assembler.finish_calls"]
    )
    for c in ("build_rows", "probe_rows", "out_rows"):
        m[f"relational.{c}"] = traced["counters"][c]
    for s in ("trie_rows", "base_rows", "canon_rows", "index_rows"):
        m[f"state.{s}"] = traced["state"][s]
    m["engine.events"] = len(traced["events"])
    m["gc.s"] = timed["gc"]["s"]
    m["gc.max_pause_ms"] = timed["gc"]["max_pause_s"] * 1e3
    m["gc.gen2_collections"] = timed["gc"]["gen2"]
    m["trace.overhead_ratio"] = ratio(lay["trace.answer_s"], timed["answer_s"])
    m["spark_ops.session_s"] = m["spark_ops.input_s"] = 0.0
    m["spark_ops.job_s"] = m["spark_ops.overhead_s"] = 0.0
    if spark is not None:
        job_s = spark["job_s"]
        m["spark_ops.session_s"] = spark["session_s"]
        m["spark_ops.input_s"] = spark["input_s"]
        m["spark_ops.job_s"] = job_s
        m["spark_ops.overhead_s"] = job_s - timed["answer_s"]
    return m


def measure(args, w) -> tuple[dict, dict]:
    """Run the workload; returns (result line, run record)."""
    from workloads import make_input

    t_start = time.monotonic()
    deadline = t_start + BUDGET_S
    phases: dict[str, float] = {}
    updates, queries = make_input(w, args.seed)
    work = OUT / "work" / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "input.pkl"
    with open(path, "wb") as f:
        pickle.dump((updates, queries), f)
    phases["input_s"] = time.monotonic() - t_start
    n_replays = 1 if args.trace else replays_per_run(w, args.seconds)
    tag = f"{w.name}-s{args.seed}"
    try:
        t = time.monotonic()
        timed = [
            replay(w, path, work, f"{tag}-timed{i}", "timed", deadline)
            for i in range(n_replays)
        ]
        setups = list(timed)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(
                replay(w, path, work, f"{tag}-setup{len(setups)}", "setup", deadline)
            )
        traced = None
        if args.trace:
            traced = replay(w, path, work, f"{tag}-traced", "traced", deadline)
        phases["replay_s"] = time.monotonic() - t

        spark = None
        if w.spark and args.trace:
            t = time.monotonic()
            out = work / "spark.json"
            run_child("spark_job.py", [
                "--input", str(path), "--engine", w.engine,
                "--work", str(work / "spark"), "--out", str(out),
            ], deadline)
            spark = load_result(out)
            phases["spark_s"] = time.monotonic() - t

        t = time.monotonic()
        ref = reference_events(path, work, deadline)
        phases["reference_s"] = time.monotonic() - t
    finally:
        shutil.rmtree(work, ignore_errors=True)

    replays = timed + ([traced] if traced else [])
    problems = []
    for r in replays:
        bad = check_events(r["events"], r["processed"], ref)
        if bad:
            problems.append(f"{r['mode']} replay: {bad}")
    if spark is not None:
        bad = check_events(spark["events"], len(updates), ref)
        if bad:
            problems.append(f"spark job: {bad}")
    if traced:
        lay = traced["layers"]
        # the wrapper's own bookkeeping around each span is all that may
        # separate the spans from run_stream's clock
        gap = lay["trace.engine_s"] - lay["trace.update_span_s"]
        if not 0 <= gap <= TRACE_CLOCK_TOLERANCE * lay["trace.engine_s"]:
            problems.append(
                f"process_update spans sum to {lay['trace.update_span_s']:.4f} s, "
                f"run_stream measured {lay['trace.engine_s']:.4f} s"
            )
        if lay["trace.stray_spans"]:
            problems.append(
                f"{lay['trace.stray_spans']} answering-phase spans lie outside process_update"
            )
    prints = [fingerprint(r) for r in replays]
    problems += check_fingerprints(w, args.seed, prints)

    attempted = len(updates) * len(timed)
    failed = attempted - sum(r["processed"] for r in timed)
    if spark is not None:
        attempted += len(updates)
    metrics = per_layer(timed[0], traced, spark) if args.trace else end_to_end(
        timed, setups
    )
    units = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": w.name,
        "why": w.why,
        "params": w.params(),
        "seed": args.seed,
        "trace": args.trace,
        "replays": len(timed),
        "samples_per_replay": [r["processed"] for r in timed],
        "answer_s_per_replay": [r["answer_s"] for r in timed],
        "slowdown_per_replay": [r["slowdown"] for r in timed],
        "uncorrected_updates_per_s": statistics.median(
            ratio(r["processed"], r["answer_s"]) for r in timed
        ),
        "setup_samples": [(x["setup_s"], x["setup_slowdown"]) for x in setups],
        "failed_frac": ratio(failed, attempted),
        "overflows": [r["overflow"] for r in replays if r["overflow"]],
        "problems": problems,
        "fingerprint": prints[0],
        "phases_s": phases,
        "wall_s": time.monotonic() - t_start,
        "result": line,
    }
    if spark is not None:
        record["spark"] = {k: v for k, v in spark.items() if k != "events"}
    return line, record


def report(record: dict) -> None:
    line = record["result"]
    print(f"perfbench {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  params={json.dumps(record['params'])}")
    samples = record["samples_per_replay"]
    print(f"  {record['replays']} untraced replay(s) of one arrival order of "
          f"{samples[0]} updates, each in a fresh process; closed loop, one client")
    if not record["trace"]:
        n = min(samples)
        slow = record["slowdown_per_replay"]
        print(f"  every metric is a median over replays, times corrected for host speed "
              f"(slowdown {min(slow):.2f}-{max(slow):.2f}; uncorrected updates_per_s "
              f"{record['uncorrected_updates_per_s']:.1f}); each replay has {n} or more "
              f"per-update samples ({n - int(0.99 * n)} or more beyond p99); setup_s is "
              f"the median of {len(record['setup_samples'])} set-ups")
    if "spark" in record:
        sp = record["spark"]
        print(f"  spark: session {sp['session_s']:.2f} s + trivial job "
              f"{sp['trivial_job_s']:.2f} s, input {sp['input_s']:.2f} s, first job "
              f"{sp['first_job_s']:.2f} s (discarded), timed job {sp['job_s']:.2f} s")
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:>16.6g} ratio "
          f"({line['failed']} of {line['attempted']} updates)")
    for o in record["overflows"]:
        print(f"  engine overflow (counted as failed): {o}")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")
    phases = ", ".join(f"{k} {v:.1f}" for k, v in record["phases_s"].items())
    print(f"  outputs correct: {line['correct']}  (wall {record['wall_s']:.1f} s: {phases})")


def main(argv: list[str] | None = None) -> int:
    from workloads import TINY, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="all: every workload in turn, one result line")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: self-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "core" / "tric.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        w = WORKLOADS[name]
        if args.size == "tiny":
            w = dataclasses.replace(w, **TINY)
        try:
            lines[name], record = measure(args, w)
        except CheckFailed as e:
            print(f"perfbench: {name}: {e}", file=sys.stderr)
            return 1
        runs = OUT / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        (runs / f"{w.name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
        report(record)
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {
                f"{name}/{k}": m for name, x in lines.items() for k, m in x["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
