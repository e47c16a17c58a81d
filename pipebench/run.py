#!/usr/bin/env python3
"""Pipeline benchmark runner.

Builds the benchmark program from the checkout it sits in, runs one
workload and forwards the program's result line after checking it
against BENCHMARK.json.

    python3 pipebench/run.py --workload app-pipeline --seed 1 --seconds 15 --trace 0
    python3 pipebench/run.py --selftest      # the benchmark's own tests

The last line of standard output is the result: one JSON object with
the keys correct, attempted, failed and metrics. End-to-end metrics with
--trace 0, per-layer metrics with --trace 1. The exit code is 0 only for
a completed, correct run. Build output goes to .bench_build/pipebench/,
spans and result records to .bench_build/pipebench-out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pipebench"
OUT = ROOT / ".bench_build" / "pipebench-out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    """The benchmark measures the program next to it; without it there is nothing to run."""
    if not (ROOT / "src" / "ecohmem").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("no ecohmem sources in %s: run from a full checkout" % ROOT, 2)


def build(targets):
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "a") as log:
        def step(cmd):
            result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                    timeout=BUILD_TIMEOUT_S)
            return result.returncode == 0

        if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if not step(configure):
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                fail_with_log(log_path, "configure failed")
        if not step(["cmake", "--build", str(BUILD), "--target", *targets,
                     "-j", str(os.cpu_count() or 1)]):
            fail_with_log(log_path, "build failed")


def fail_with_log(log_path, message):
    lines = log_path.read_text(errors="replace").splitlines()
    sys.stderr.write("\n".join(lines[-40:]) + "\n")
    fail("%s (full log: %s)" % (message, log_path))


def git_hash():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_hash():
    """Hash of the program's sources, which identifies a build where git cannot."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "configs", "pipebench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parses the program's result line. End-to-end metrics must match
    BENCHMARK.json by name and unit. The traced run prints every layer
    figure it measured, without units: the declared ones are kept, given
    their units, and 0 where the workload does not exercise the layer."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the program's last line is not JSON: %r" % line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    want = declared_metrics(trace)
    if trace:
        measured = result["metrics"]
        result["metrics"] = {name: {"value": measured.get(name, {"value": 0.0})["value"],
                                    "unit": unit} for name, unit in want.items()}
        return result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            missing, extra, sorted(n for n in got if n in want and got[n] != want[n])))
    return result


def run(args):
    build(["pipebench"])
    scratch = OUT / ("%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    host = {"git": git_hash(), "source": source_hash()}
    cmd = [str(BUILD / "pipebench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(ROOT),
           "--scratch", ".", "--git", host["git"], "--source", host["source"]]
    spans = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=scratch, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        fail("pipebench exited with %d" % proc.returncode)
    result = check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
        if line.startswith("# host "):
            host["line"] = line[len("# host "):]
    with open(OUT / "results.jsonl", "a") as records:
        records.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "host": host,
                                  "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest():
    build(["pipebench", "pipebench_test"])
    return subprocess.run(["ctest", "--output-on-failure"], cwd=BUILD).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["app-pipeline", "trace-advise", "serve-stream"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true", help="build and run the tests")
    args = parser.parse_args()
    check_checkout()
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
