#!/usr/bin/env python3
"""Self-test of the bounds-contract benchmark, at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that:
  - an untraced smoke run passes its gates and prints every end-to-end
    metric with its declared unit, and nothing else;
  - a traced smoke run does the same for every per-layer metric;
  - a run whose oracle is deliberately corrupted fails (non-zero exit,
    "correct": false);
and that the benchmark refuses to run, without printing a result, from a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(extra, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + extra, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            result = last_json(done.stdout)
            what = "%s trace=%d" % (workload, trace)
            expect(done.returncode == 0 and result is not None and
                   result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   what + " passes its gates\n" + done.stderr[-2000:])
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, what + " prints exactly the declared metrics "
                   "and units (missing %s, extra %s)" %
                   (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   what + " prints numeric values")
        done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0", "--smoke", "--corrupt-oracle"])
        result = last_json(done.stdout)
        expect(done.returncode != 0 and result is not None and
               not result["correct"],
               workload + " fails on a corrupted oracle")

    # A directory holding only the benchmark's own files.
    bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", "explore", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    expect(done.returncode != 0 and not done.stdout.strip(),
           "refuses to run without the sources, printing no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
