"""Self-test of the benchmark on a tiny query (path join, 200 rows per
relation): runs it end to end and traced, and checks that every metric
BENCHMARK.json names is printed with its unit, that no invocation failed, and
that trace.coverage was computed. Takes about two minutes.

    python3 perfbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "path-tiny",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run(trace)
        if result["failed"] != 0 or not result["correct"]:
            errors.append(f"trace {trace}: {result['failed']} of {result['attempted']} failed")
        got = result["metrics"]
        for m in spec[kind]:
            v = got.get(m["name"])
            if v is None:
                errors.append(f"trace {trace}: {m['name']} missing")
            elif v["unit"] != m["unit"]:
                errors.append(f"trace {trace}: {m['name']} unit {v['unit']}, expected {m['unit']}")
            elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                errors.append(f"trace {trace}: {m['name']} = {v['value']}")
        extra = set(got) - {m["name"] for m in spec[kind]}
        if extra:
            errors.append(f"trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for e in errors:
        print("FAIL", e)
    print("selftest:", "failed" if errors else "ok")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
