#!/usr/bin/env python3
"""Builds and runs the netclus benchmark.

Run from the root of a netclus checkout:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build
output goes to stderr. Each run works in its own directory under
.bench_tmp/ (dataset text, mutation log, checkpoint slots), removed at
exit; a traced run leaves its spans in .bench_trace/<workload>.spans.jsonl.

The last line of stdout is the result object. With --trace 0 its
metrics are exactly the end-to-end metrics of BENCHMARK.json. With
--trace 1 they are the per-layer metrics: the program reports those of
the layers the workload exercises, and this script adds every other
per-layer metric of BENCHMARK.json with the value 0. A metric that
BENCHMARK.json does not name, or names with another unit, a missing
end-to-end metric, a failed build, a failed check or a timeout makes
the script exit non-zero without printing a result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve_read", "serve_write", "cluster_offline")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.call(cmd, stdout=sys.stderr, env=env) == 0


def expected_metrics(trace):
    """{name: unit} of the end-to-end or per-layer metrics."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete_metrics(got, want, trace):
    """The metrics in BENCHMARK.json order, or None with a log line when
    they do not fit it."""
    unexpected = [n for n in got if want.get(n) != got[n]["unit"]]
    missing = [n for n in want if n not in got]
    if unexpected or (missing and not trace):
        log(f"metrics do not match BENCHMARK.json: unexpected or wrong "
            f"unit {unexpected}, missing {missing}")
        return None
    return {n: got.get(n, {"value": 0, "unit": unit})
            for n, unit in want.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not build(bench_dir, build_dir):
        log("build failed")
        return 1

    work_dir = os.path.abspath(os.path.join(".bench_tmp", f"run-{os.getpid()}"))
    trace_dir = os.path.abspath(".bench_trace")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", work_dir]
    if args.trace == "1":
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]

    child = None

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    try:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        code = child.returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{")
                                   else lines) + "\n")
        log(f"perfbench exited with code {code}")
        return code
    result = json.loads(lines[-1])
    trace = args.trace == "1"
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    metrics = complete_metrics(result["metrics"], expected_metrics(trace),
                               trace)
    if metrics is None:
        return 1
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
