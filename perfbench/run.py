#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the simulator library and the benchmark binary from this checkout
(Release, link-time optimization when supported) into .bench_build/, runs
one workload, and prints the result as the last line of standard output:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Every result is stored, together with a record of the host, the build
and the ATHENA_* environment, under .bench_build/perfbench/results/.
The run is refused while an ATHENA_* variable that the simulator library
reads is set, because such a variable changes what is measured.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(BUILD, "out")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def library_env_vars():
    """ATHENA_* names the library reads: its "ATHENA_..." literals."""
    names = set()
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith((".cc", ".hh")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    names.update(re.findall(r'"(ATHENA_[A-Z0-9_]+)"', f.read()))
    return names


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hh")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    for cmd in (
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def host_record():
    model, flags = "", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "athena_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("ATHENA_")},
    }


def run_binary(args):
    """Run the benchmark binary; return its JSON lines (last = result)."""
    proc = subprocess.run([BINARY, "--out", OUT] + args,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark printed no result")
    return lines


def selftest():
    lines = run_binary(["--selftest"])
    report = lines[-1].get("selftest", {})
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    problems = [] if report.get("passed") else ["binary self-test failed"]
    for kind, cap in (("end_to_end", MAX_END_TO_END),
                      ("per_layer", MAX_PER_LAYER)):
        want = [m["name"] for m in declared[kind]]
        got = report.get(kind, [])
        if sorted(want) != sorted(got):
            problems.append(f"{kind}: BENCHMARK.json names {sorted(set(want) ^ set(got))} "
                            "differ from the metrics printed")
        if not 1 <= len(want) <= cap:
            problems.append(f"{kind}: {len(want)} metrics, cap {cap}")
        bad = [n for n in want if not NAME_RE.fullmatch(n)]
        if bad:
            problems.append(f"{kind}: illegal names {bad}")
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print(json.dumps({"selftest": {"passed": not problems,
                                   "problems": problems}}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    read = sorted(library_env_vars() & set(os.environ))
    if read:
        fail("refusing to run while the library reads " + ", ".join(read))
    build()
    if args.selftest:
        return selftest()

    lines = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace)])
    result = lines[-1]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_record()}
    for extra in lines[:-1]:
        record.update(extra)
    record["result"] = result
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: record[k] for k in record if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
