#!/usr/bin/env python3
"""C-Extension benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clique-3x --seed 7 --seconds 8 --trace 0

It builds the solver and the benchmark from source with sbt (once per source
state; the build is cached under perfbench/target), runs one benchmark JVM
and relays its output. The last line of standard output is the result JSON.
Everything the run writes stays inside the checkout (perfbench/target,
perfbench/project/target, perfbench/out).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOLVER_SRC = ROOT / "src" / "main" / "scala"
OUT = BENCH / "out"
STAMP = BENCH / "target" / "perfbench-classpath.txt"
WORKLOADS = ("clique-3x", "ilp-2x")
MAX_CORES = 4
SHUFFLE_PARTITIONS = 8
HEAP = "2g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-XX:+UseParallelGC",
    "-XX:+AlwaysPreTouch",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group and wait for it; on timeout, kill
    the whole group (sbt's launcher forks a JVM) and wait again. Returns
    (exit code or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        if sys.exc_info()[0] is subprocess.TimeoutExpired:
            return None, out
        raise


def sources_sha():
    """Hash of every file the build compiles, to know when to rebuild."""
    h = hashlib.sha256()
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (SOLVER_SRC, BENCH / "src" / "main"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def build(env, sha):
    """Compile with sbt and cache the runtime classpath, keyed by `sha`."""
    if STAMP.is_file():
        cached_sha, _, cp = STAMP.read_text().partition("\n")
        if cached_sha == sha:
            return cp.strip()
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt not found on PATH")
    code, out = run_group(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "-error", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stderr=subprocess.STDOUT)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"sbt build failed (exit {code})")
    cp = lines[-1].strip()
    STAMP.parent.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(sha + "\n" + cp + "\n")
    return cp


def git_commit():
    """HEAD of the checkout, or "unknown" when the checkout is not a git
    work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main():
    # A terminated run still stops the JVM it started (see run_group).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int, help="Census generator seed")
    ap.add_argument("--seconds", required=True, type=int, help="how long the timed loop runs")
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    if not SOLVER_SRC.is_dir():
        fail(f"solver sources not found at {SOLVER_SRC.relative_to(ROOT)}; run from a checkout root")
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cp = build(env, sources_sha())

    OUT.mkdir(exist_ok=True)
    local = OUT / "spark-local"
    shutil.rmtree(local, ignore_errors=True)
    local.mkdir()
    cores = max(1, min(MAX_CORES, len(os.sched_getaffinity(0))))
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={local}", *JAVA_OPTS, "-cp", cp,
           "repro.perfbench.Bench",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--cores", str(cores),
           "--shuffle-partitions", str(SHUFFLE_PARTITIONS), "--out", str(OUT),
           "--commit", git_commit(), "--source-sha", sources_sha()]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    finally:
        shutil.rmtree(local, ignore_errors=True)
    if code is None:
        sys.stderr.write(out)
        fail(f"benchmark JVM did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"benchmark JVM failed (exit {code})")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
