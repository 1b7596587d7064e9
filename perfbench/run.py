#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

Builds the program and the harness if needed (see build.py), starts one JVM
running `perfbench.PerfBench` on a pinned `local[N]` Spark master, checks its
result against the metric list in BENCHMARK.json, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of standard output. With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones. Exits non-zero when the
build fails, an outlier set is wrong, or the output does not match.

Usage:
    python3 perfbench/run.py --master local[4] --workload deep-build \
        --seed 1 --seconds 20 --trace 0
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402  (the benchmark's build file, next to this one)

ROOT = build.ROOT
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
LOG_CONFIG = ROOT / "perfbench" / "log4j2.properties"
JVM_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "

# Spark on JDK 17 needs the module opens spark-submit would add.
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--master", required=True, help="Spark master, local[N]")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def pinned_master(master: str) -> str:
    m = re.fullmatch(r"local\[(\d+)\]", master)
    if not m or int(m.group(1)) < 1:
        fail(f"--master must be local[N] with N >= 1, got {master}")
    cores = len(os.sched_getaffinity(0))
    if int(m.group(1)) > cores:
        # a smaller master would be a different workload from the baseline's
        fail(f"{master} needs {m.group(1)} usable cores, this machine has {cores}")
    return master


def check(result: dict, expected: list) -> None:
    """The result line must carry exactly the declared metrics and units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        fail("failed must be a whole number")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            fail(f"metric {name} is not a number: {m['value']}")


def main() -> None:
    args = parse_args()
    if not BENCHMARK_JSON.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(BENCHMARK_JSON.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    master = pinned_master(args.master)

    try:
        build.build()
        cp = build.classpath()
    except build.BuildError as e:
        fail(f"build failed: {e}")

    work = build.BUILD_DIR / "work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    cmd = [build.java(), "-Xms2g", "-Xmx2g", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dlog4j2.configurationFile={LOG_CONFIG}",
           *JVM_OPENS, "-cp", cp, "perfbench.PerfBench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--master", master, "--work-dir", str(work)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(work / "spark-local"))
    # SIGTERM exits through the finally below, so the JVM never outlives us
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {JVM_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    result = None
    for line in out.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line, file=sys.stderr)
    if result is None:
        fail(f"harness exited with {proc.returncode} and printed no result")
    check(result, expected)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
