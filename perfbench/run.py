#!/usr/bin/env python3
"""Build the benchmark client and run one workload, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The client (perfbench/src, compiled by sbt together with the repository's
src/main/scala) is built on the first run and whenever a source changes,
then runs in its own JVM with a fixed heap, touched at start so that no
page faults fall into the timed queries. Its stdout is passed through;
the last line, the JSON result, is checked and printed last. Scratch files
go to .bench_build/ and are removed at the end.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
STAMP = WORK / "build.sha256"
CLASSES = BENCH / "target" / "scala-2.13" / "classes"
HEAP = "2g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the group and wait."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return p.returncode, out


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark distribution found; set SPARK_HOME")
    return home


def source_digest():
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for top in (ROOT / "src" / "main", BENCH / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def build(env):
    digest = source_digest()
    if STAMP.is_file() and STAMP.read_text() == digest and CLASSES.is_dir():
        return
    STAMP.unlink(missing_ok=True)
    code, _ = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile"], BUILD_TIMEOUT_S,
                  cwd=BENCH, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (sbt exit {code})")
    WORK.mkdir(exist_ok=True)
    STAMP.write_text(digest)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro" / "core" / "MPDS.scala").is_file():
        fail(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}", 2)
    # The session comes from Harness.localSpark exactly as the program
    # configures it: no master or shuffle-partition override.
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS")}
    env["SPARK_HOME"] = spark_home()
    build(env)

    scratch = WORK / f"run-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    java = str(Path(env["JAVA_HOME"]) / "bin" / "java") if env.get("JAVA_HOME") else "java"
    cmd = [
        java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
        f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={scratch}",
        f"-Dspark.sql.warehouse.dir={scratch / 'warehouse'}",
        f"-Djava.io.tmpdir={scratch / 'tmp'}",
        "-cp", f"{CLASSES}{os.pathsep}{Path(env['SPARK_HOME']) / 'jars' / '*'}",
        "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, cwd=scratch, env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"client exited with {code}")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("client printed no result")
    print("\n".join(lines[:-1]))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
