#!/usr/bin/env python3
"""Build and run the wdm end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

The first form configures and builds e2ebench/ (the wdm library from src/
plus the e2ebench binary) in Release under $CARGO_TARGET_DIR (default
.bench_build), then runs the binary with the same arguments. Its last line of
output is the result JSON; the exit code is the binary's.

The second form runs every workload of BENCHMARK.json at its smallest size,
traced and untraced, checks that the printed metric names and units are
exactly the ones BENCHMARK.json declares, and checks that the oracle rejects
tampered reports.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def log(*parts):
    print("e2ebench:", *parts, file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def git_describe():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                        "--dirty", "--tags"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def build():
    """Configures (once) and builds; returns the binary's path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                            "-DCMAKE_BUILD_TYPE=Release",
                            "-DE2E_GIT_DESCRIBE=" + git_describe()],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    exe = out / "e2ebench"
    return exe if r.returncode == 0 and exe.exists() else None


def run_binary(exe, args):
    """Runs the binary; returns (exit code, stdout)."""
    r = subprocess.run([str(exe), *args, "--out-dir", str(build_dir())],
                       stdout=subprocess.PIPE, text=True)
    return r.returncode, r.stdout


def self_test(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            code, out = run_binary(exe, ["--workload", wl, "--seed", "7",
                                         "--seconds", "2", "--trace", trace,
                                         "--tiny"])
            lines = out.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                log(f"{wl} trace={trace}: no result line")
                ok = False
                continue
            got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            problems = []
            if code != 0 or not res.get("correct"):
                problems.append(f"exit {code}, correct={res.get('correct')}")
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result keys {sorted(res)}")
            if res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"attempted {res.get('attempted')}, "
                                f"failed {res.get('failed')}")
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got
                               if k in want[trace] and got[k] != want[trace][k])
                problems.append(f"metrics differ: missing {missing}, "
                                f"extra {extra}, wrong units {units}")
            for p in problems:
                log(f"{wl} trace={trace}: {p}")
            ok &= not problems
            if not problems:
                log(f"{wl} trace={trace}: ok ({len(got)} metrics)")
    code, out = run_binary(exe, ["--oracle-self-test"])
    sys.stderr.write(out)
    ok &= code == 0
    log("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    exe = build()
    if exe is None:
        log("build failed")
        return 3
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test(exe)
    code, out = run_binary(exe, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
