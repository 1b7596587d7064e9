#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (`src/main/scala`) together with the harness
(`perfbench/src`) into `.bench_build/perfbench/classes`, using the Scala
compiler that ships in Spark's `jars` directory (found through `SPARK_HOME`,
or through `spark-submit` on the PATH). Nothing is written outside
`.bench_build`. A build is skipped when no source changed since the last one.

Usage: python3 perfbench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CLASSES = BUILD_DIR / "classes"
STAMP = BUILD_DIR / "classes.sha256"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on the PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not any(jars.glob("spark-core_*.jar")):
        raise BuildError(f"no Spark jars under {jars}")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources() -> list:
    for d in SOURCE_DIRS:
        if not d.is_dir():
            raise BuildError(f"missing source directory {d.relative_to(ROOT)}")
    srcs = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not srcs:
        raise BuildError("no Scala sources to build")
    return srcs


def fingerprint(srcs: list, jars: Path) -> str:
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    for j in sorted(jars.glob("*.jar")):
        h.update(j.name.encode())
    return h.hexdigest()


def classpath() -> str:
    return f"{CLASSES}{os.pathsep}{spark_jars() / '*'}"


def build() -> Path:
    """Compiles if needed; returns the classes directory."""
    jars = spark_jars()
    srcs = sources()
    fp = fingerprint(srcs, jars)
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == fp:
        return CLASSES

    compiler = [next(iter(jars.glob(f"{name}-2.*.jar")), None)
                for name in ("scala-compiler", "scala-library", "scala-reflect")]
    if None in compiler:
        raise BuildError(f"no Scala compiler jars under {jars}")

    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = BUILD_DIR / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    argfile = BUILD_DIR / "sources.txt"
    argfile.write_text("\n".join(str(p) for p in srcs) + "\n")
    cmd = [java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={BUILD_DIR}",
           "-cp", os.pathsep.join(str(j) for j in compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(tmp),
           "-classpath", str(jars / "*"), f"@{argfile}"]
    print(f"[perfbench] compiling {len(srcs)} Scala sources", file=sys.stderr)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    STAMP.write_text(fp)
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
