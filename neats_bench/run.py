#!/usr/bin/env python3
"""NeaTS benchmark runner.

    python3 neats_bench/run.py --workload ingest|lookup \
        --seed N --seconds S --trace 0|1
    python3 neats_bench/run.py --selftest

Run from the root of a checkout. The first run builds the program's sources
together with the benchmark (sbt, offline) into ignored directories; later
runs reuse the build while the sources are unchanged. A run starts several
JVMs ("forks") one after another, each with a pinned heap and young
generation, splits the measuring time between them and reports the median
of each metric across forks: JIT decisions and memory layout differ from
one JVM to the next and move decode speeds by 10-15%. The last line printed
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "neats_bench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ("ingest", "lookup")

# Fixed heap and young generation: each point access allocates, and a heap
# that grows during a run changes how often it is collected, so per-access
# times drift within one JVM. 2 GB fits beside the build's own JVMs.
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-Xmn512m", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
    "-XX:-UsePerfData",
]
# Spark on JDK 17 reflects into these packages.
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]
# Forks per untraced run; the traced run is a single fork.
FORKS = {"ingest": 3, "lookup": 4}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"neats_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    for top in (PROGRAM_SOURCES, os.path.join(BENCH, "src")):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                yield os.path.join(d, f)
    yield os.path.join(BENCH, "build.sbt")
    yield os.path.join(BENCH, "project", "build.properties")


def source_hash():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def source_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "sources-" + source_hash()[:16]


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME")
    return home


def build():
    """Compiles the benchmark with the program's sources, once per source state."""
    stamp = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    want = source_hash()
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as f:
            if f.read().strip() == want:
                with open(cp_file) as g:
                    return g.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        r = subprocess.run(cmd, cwd=BENCH, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    lines = [l for l in r.stdout.splitlines() if "neats_bench" in l and ".jar" in l]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        fail("build failed", 1)
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp, "w") as f:
        f.write(want)
    return cp


def run_jvm(cp, args, timeout):
    """Runs one benchmark JVM; returns (context lines, result object)."""
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    cmd = (["java"] + JVM_FLAGS + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + [f"-Djava.io.tmpdir={tmp}", f"-Dneatsbench.sha={source_sha()}",
              "-cp", cp, "neatsbench.Main"] + args + ["--work-dir", work])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"run did not end within {timeout} s", 1)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    for f in os.listdir(work):
        if f.startswith("trace-"):
            shutil.move(os.path.join(work, f), os.path.join(traces, f))
    shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"benchmark JVM exited with code {proc.returncode}", 1)
    return [json.loads(l) for l in lines[:-1]], json.loads(lines[-1])


def run(cp, workload, seed, seconds, trace, extra=()):
    """One run: its forks in sequence; returns (context, merged result)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    forks = 1 if trace else FORKS[workload]
    contexts, results = [], []
    for i in range(forks):
        ctx, r = run_jvm(cp, ["--workload", workload, "--seed", str(seed), "--fork", str(i),
                              "--seconds", str(seconds / forks), "--trace", str(trace)] + list(extra),
                         timeout=max(1.0, deadline - time.monotonic()))
        contexts += ctx
        results.append(r)
    names = results[0]["metrics"].keys()
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": statistics.median(r["metrics"][k]["value"] for r in results),
                        "unit": results[0]["metrics"][k]["unit"]} for k in names},
    }
    per_fork = {k: [r["metrics"][k]["value"] for r in results] for k in names}
    return {"forks": forks, "per_fork": per_fork, "jvms": contexts}, merged


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {sorted(k for k in want if got.get(k, want[k]) != want[k])}", 1)
    bad = [k for k, v in result["metrics"].items() if not v["value"] > 0]
    if not trace and bad:
        fail(f"end-to-end metrics not above 0: {bad}", 1)


def selftest(cp):
    """Small runs of every workload, plain and traced, and one with a corrupted
    answer per check kind, which must report correct = false."""
    ok = True
    for w in WORKLOADS:
        small = ["--scale", "0.05"]
        for trace in (0, 1):
            _, r = run(cp, w, 7, 2, trace, small)
            check_result(r, trace == 1)
            # ingest attempts 31 operations a round; one of them fails.
            want_failed = r["attempted"] // 31 if w == "ingest" else 0
            good = r["correct"] and r["attempted"] > 0 and r["failed"] == want_failed
            print(f"selftest {w} trace={trace}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} -> {'ok' if good else 'FAIL'}", flush=True)
            ok &= good
        _, r = run(cp, w, 7, 2, 0, small + ["--corrupt", "1"])
        good = r["correct"] is False
        print(f"selftest {w} corrupted answers: correct={r['correct']} -> {'ok' if good else 'FAIL'}",
              flush=True)
        ok &= good
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail("the program's sources (src/main/scala/repro) are not in this checkout")
    if not a.selftest and a.workload is None:
        fail("--workload is required")
    cp = build()
    if a.selftest:
        sys.exit(selftest(cp))
    context, result = run(cp, a.workload, a.seed, a.seconds, a.trace)
    check_result(result, a.trace == 1)
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
