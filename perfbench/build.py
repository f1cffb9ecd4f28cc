"""Builds the benchmark: compiles the program's sources (src/main/scala) and
the benchmark's (perfbench/src) with the Scala compiler that ships in Spark's
jars directory, into .bench_build/classes. A stamp of the sources' digest
makes a rebuild happen only when a source changed.

    python3 perfbench/build.py        # prints the classpath to run with
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "classes")
STAMP = os.path.join(BUILD, "classes.stamp")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """Spark's jars directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def sources():
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"missing source directory {os.path.relpath(d, ROOT)}")
    found = sorted(
        os.path.join(dp, f)
        for d in SOURCE_DIRS
        for dp, _, fs in os.walk(d)
        for f in fs
        if f.endswith(".scala"))
    if not any(p.startswith(SOURCE_DIRS[0]) for p in found):
        raise BuildError("no program sources under src/main/scala")
    return found


def digest(paths):
    h = hashlib.sha256()
    for p in paths + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    """Compiles if needed; returns (classpath, source digest)."""
    jars = spark_jars()
    srcs = sources()
    stamp = digest(srcs)
    cp = os.pathsep.join([CLASSES, os.path.join(jars, "*")])
    if os.path.isfile(STAMP) and open(STAMP).read() == stamp and os.path.isdir(CLASSES):
        return cp, stamp
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xmx1g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-nowarn", "-d", tmp, "-classpath", os.path.join(jars, "*")] + srcs
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed:\n" + r.stdout[-4000:])
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    with open(STAMP, "w") as f:
        f.write(stamp)
    return cp, stamp


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
