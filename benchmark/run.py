#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --self-test

Run from the repository root. Builds benchmark/ (and through it the
library, with the repository's own CMake) into .bench_build/, runs one
workload of diva_bench, checks that it reported every metric that
BENCHMARK.json lists for the run kind (end_to_end with --trace 0,
per_layer with --trace 1) with the listed unit, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when the build worked, every operation and
output check passed, and every listed metric was measured. A record of
the run (machine, budget, source digest, all metrics) goes to
.bench_out/; a traced run also writes its spans there as a Chrome trace.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
OUT_DIR = ".bench_out"
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fail(msg, code=2):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec(path):
    """Reads BENCHMARK.json and checks it against the benchmark contract.

    Returns the parsed object; raises ValueError naming the first problem.
    """
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    if len(raw.encode("utf-8")) > 64 * 1024:
        raise ValueError("BENCHMARK.json is larger than 64 KiB")
    spec = json.loads(raw)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not isinstance(spec, dict) or set(spec) != keys:
        raise ValueError(f"top-level keys must be exactly {sorted(keys)}")

    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(a, str) and 0 < len(a) <= 200 for a in cmd)):
        raise ValueError("command must be 1-32 strings of at most 200 characters")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise ValueError("paths must list 1-16 directories")
    for p in paths:
        if (not isinstance(p, str) or not PATH_RE.match(p) or p.startswith("/")
                or ".." in p.split("/")):
            raise ValueError(f"bad path {p!r}")
    for a in cmd:
        if a.startswith("/") or ".." in a.split("/"):
            raise ValueError(f"command argument {a!r} leaves the repository")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        raise ValueError("run_seconds must be a whole number from 1 to 60")

    seen = set()

    def check_name(n):
        if not isinstance(n, str) or not NAME_RE.match(n):
            raise ValueError(f"bad name {n!r}")
        if n in seen:
            raise ValueError(f"name {n!r} is used twice")
        seen.add(n)

    wl = spec["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        raise ValueError("workloads must list 2-8 entries")
    for w in wl:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            raise ValueError("a workload has exactly a name and a why")
        check_name(w["name"])
        if not isinstance(w["why"], str) or not 0 < len(w["why"]) <= 200 or "\n" in w["why"]:
            raise ValueError(f"workload {w['name']}: why must be one line of at most 200 characters")

    for section, lo, hi, with_bound in (("end_to_end", 1, 16, True), ("per_layer", 1, 128, False)):
        ms = spec[section]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            raise ValueError(f"{section} must list {lo}-{hi} metrics")
        for m in ms:
            want = {"name", "unit", "better"} | ({"bound"} if with_bound else set())
            if not isinstance(m, dict) or set(m) != want:
                raise ValueError(f"{section} metrics have exactly the keys {sorted(want)}")
            check_name(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                raise ValueError(f"metric {m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                raise ValueError(f"metric {m['name']}: better is 'higher' or 'lower'")
            if with_bound:
                b = m["bound"]
                if not isinstance(b, (int, float)) or isinstance(b, bool) or not 0 < b <= 0.25:
                    raise ValueError(f"metric {m['name']}: bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ValueError("end_to_end needs setup_s in s, better lower")
    return spec


def select_metrics(spec, measured, trace):
    """The metrics BENCHMARK.json lists for this run kind, as measured.

    Returns (metrics, problems): a problem is a listed metric that is
    missing, not finite, or reported with another unit.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: not measured")
        elif not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: not finite")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, problems


def source_digest():
    """Content hash of the sources the benchmark builds, for the record."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "benchmark"):
        if os.path.isfile(top):
            files = [top]
        else:
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    # A checkout without .git may sit inside another repository, whose
    # revision says nothing about this one.
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout and
    waits for it, so no process outlives the run."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "benchmark", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            rc, _ = run_group(step, BUILD_TIMEOUT_S, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(step)}", 3)
    return os.path.join(BUILD_DIR, "diva_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: no CMakeLists.txt and src/ here")
    try:
        spec = load_spec("BENCHMARK.json")
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")

    if args.self_test:
        here = os.path.dirname(os.path.abspath(__file__))
        rc = subprocess.run([sys.executable, os.path.join(here, "test_run.py")]).returncode
        binary = build()
        rc |= subprocess.run([binary, "--self-test"]).returncode
        sys.exit(1 if rc else 0)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(RUN_DIR, f"{tag}-{os.getpid()}")
    spans = os.path.join(OUT_DIR, f"{tag}-spans.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        rc, out = run_group(cmd, BINARY_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if rc is None:
        fail(f"diva_bench did not finish within {BINARY_TIMEOUT_S} s", 4)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"diva_bench exited {rc} without a result line", 4)

    metrics, problems = select_metrics(spec, result.get("metrics", {}), args.trace)
    for p in problems:
        print(f"benchmark: {p}", file=sys.stderr)
    correct = bool(result.get("correct")) and rc == 0 and not problems
    attempted = int(result.get("attempted", 0))
    failed = int(result.get("failed", 0))
    if problems and failed == 0:
        failed = 1

    record = dict(result)
    record["record"] = dict(result.get("record", {}),
                            source_digest=source_digest(), git_revision=git_revision())
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
