"""Relational-clustering benchmark entry point.

    python3 perfbench/run.py --workload path-small --seed 0 --seconds 20 --trace 0

Builds the program and the benchmark if a source changed (perfbench/build.py),
then runs one benchmark JVM (repro.perfbench.PerfBench) and relays its output.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records the
machine, the input fingerprint and the repetition counts. Exits non-zero,
without a result line, if the build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170
HEAP = "3g"
# Module openings Spark needs on Java 17 (what spark-submit passes).
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
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


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    try:
        cp, digest = build.build()
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")

    work = os.path.join(build.BUILD, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    cmd = [build.java(), f"-Xmx{HEAP}", f"-Xms{HEAP}", *JAVA_OPENS,
           f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
           f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}",
           "-cp", cp, "repro.perfbench.PerfBench",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work-dir", work,
           "--commit", commit() or f"sources-{digest[:16]}"]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"perfbench: benchmark JVM exited with {proc.returncode}")
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: benchmark JVM printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result")
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
