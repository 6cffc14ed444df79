#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <base_dir> <head_dir>
    python3 perfbench/run.py --record-expected

A run configures and builds perfbench/ (which compiles ../src) under
.bench_build/perfbench in the checkout, runs the binary with every
optional artifact (telemetry, ledger, timeline, caches) off or pointed
at .bench_build/perfbench/scratch, checks its simulated-statistics
digests against perfbench/expected.json, writes the full result
document with host and build provenance under
.bench_build/perfbench/results/, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. It exits nonzero when a
correctness gate failed or the program could not be built.

--compare takes two directories of result documents (base, head),
reports each end-to-end metric's median change against its bound in
BENCHMARK.json, and refuses to give a verdict ("rebaseline needed")
when the two sides ran on different hosts or builds.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(BUILD, "scratch")
RESULTS = os.path.join(BUILD, "results")
EXPECTED = os.path.join(HERE, "expected.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["sweep_fleet", "sweep_harsh", "nn_eval", "serve_open"]
RUN_TIMEOUT_S = 170
ISA_FLAGS = ["sse4_2", "popcnt", "bmi2", "avx", "avx2", "fma", "avx512f",
             "avx512bw", "avx512vl", "avx512_vnni"]
# Host/build identity: two result sets compare only when these match.
FINGERPRINT_KEYS = ["cpu_model", "nproc", "isa_flags", "compiler",
                    "build_type", "telemetry_compiled", "march_native"]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build_env():
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout"
             % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(nproc())])
    with open(log_path, "a") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=build_env())
            if done.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def run_env():
    env = build_env()
    for name in ("UVOLT_TELEMETRY", "UVOLT_PROFILE_HZ", "UVOLT_BATCH"):
        env.pop(name, None)
    env["UVOLT_LEDGER_DIR"] = os.path.join(SCRATCH, "ledger")
    env["UVOLT_TIMELINE"] = os.path.join(SCRATCH, "timeline.jsonl")
    env["UVOLT_CACHE_DIR"] = os.path.join(SCRATCH, "cache")
    return env


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, [flag for flag in ISA_FLAGS if flag in flags]


def source_digest():
    """sha256 over the library and benchmark sources (git-independent)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


def provenance(document):
    model, flags = cpu_info()
    build_info = document.get("info", {}).get("build", {})
    return {
        "cpu_model": model,
        "nproc": nproc(),
        "isa_flags": flags,
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "telemetry_compiled": build_info.get("telemetry_compiled"),
        "march_native": build_info.get("march_native"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "kernel": platform.release(),
    }


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_digests(document, expected):
    """Charge failed ops for every digest that differs from expected.json."""
    failed = 0
    for entry in document.get("digests", []):
        want = expected.get(entry["name"])
        entry["expected"] = want
        entry["ok"] = want == entry["value"]
        if not entry["ok"]:
            failed += entry["ops"]
            print("perfbench: digest %s = %s, expected %s"
                  % (entry["name"], entry["value"], want), file=sys.stderr)
    return failed


def run_workload(args):
    binary = build()
    os.makedirs(SCRATCH, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(RESULTS, stem + ".spans.json")]
    try:
        done = subprocess.run(command, cwd=SCRATCH, env=run_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload, 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload %s printed no result (exit %d)"
             % (args.workload, done.returncode), 1)
    document = json.loads(lines[-1])

    failed = document["failed"]
    if not args.record:
        failed += check_digests(document, load_json(EXPECTED))
    document["failed"] = failed
    document["correct"] = failed == 0 and done.returncode == 0

    manifest = load_json(MANIFEST)
    wanted = [m["name"] for m in
              manifest["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(document["metrics"]):
        fail("metric set differs from BENCHMARK.json: %s"
             % sorted(set(wanted) ^ set(document["metrics"])), 3)

    document["provenance"] = provenance(document)
    document["args"] = {"seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace}
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump(document, f, indent=1)
    return document


def record_expected():
    """Write expected.json from one short run of every workload."""
    expected = {}
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                  trace=0, record=True)
        document = run_workload(args)
        if not document["correct"]:
            fail("%s failed its in-process gates; not recording" % workload)
        for entry in document["digests"]:
            if expected.setdefault(entry["name"], entry["value"]) != \
                    entry["value"]:
                fail("digest %s differs between workloads" % entry["name"])
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(expected))


def compare(base_dir, head_dir):
    """Median change of each end-to-end metric, per workload."""
    manifest = load_json(MANIFEST)
    metrics = {m["name"]: m for m in manifest["end_to_end"]}

    def load(directory):
        runs = {}
        for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
            document = load_json(path)
            if document.get("args", {}).get("trace") == 0:
                runs.setdefault(document["workload"], []).append(document)
        return runs

    base, head = load(base_dir), load(head_dir)
    prints = set()
    for side in (base, head):
        for documents in side.values():
            for document in documents:
                prov = document["provenance"]
                prints.add(json.dumps([prov.get(k) for k in
                                       FINGERPRINT_KEYS]))
    if len(prints) > 1:
        print("rebaseline needed: host/build fingerprints differ:")
        for fingerprint in sorted(prints):
            print("  " + fingerprint)
        return 0
    worse = False
    for workload in sorted(set(base) & set(head)):
        for name, spec in metrics.items():
            b = statistics.median(d["metrics"][name]["value"]
                                  for d in base[workload])
            h = statistics.median(d["metrics"][name]["value"]
                                  for d in head[workload])
            change = (h - b) / b if b else 0.0
            regress = (-change if spec["better"] == "higher"
                       else change) > spec["bound"]
            worse = worse or regress
            print("%-12s %-18s base %-12.6g head %-12.6g %+7.2f%% %s"
                  % (workload, name, b, h, 100 * change,
                     "REGRESSION" if regress else "ok"))
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.record_expected:
        record_expected()
        return
    if not args.workload:
        parser.error("--workload is required")
    args.record = False
    document = run_workload(args)
    print(json.dumps({key: document[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if document["correct"] else 1)


if __name__ == "__main__":
    main()
