#!/usr/bin/env python3
"""The repository benchmark: build the measuring program from this
checkout, run one workload, print its result as the last line of standard
output.

One run (run from the checkout root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Steadiness mode repeats a workload over consecutive seeds and prints each
metric's median, quartiles and (q3-q1)/median beside its bound:

    python3 perfbench/run.py --workload served --seed 1 --seconds 10 \
        --steady 10 --out served.json

Comparison refuses summaries whose nproc differs:

    python3 perfbench/run.py --compare base.json change.json

The build goes to $CARGO_TARGET_DIR (default .bench_build), scratch inputs
to .bench_work, both under the checkout root. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "million", "served")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def environment():
    env = dict(os.environ)
    tmp = ROOT / ".bench_work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build_dir():
    """$CARGO_TARGET_DIR under the checkout root (default .bench_build).

    When that directory already holds a CMake cache configured from another
    checkout (an absolute $CARGO_TARGET_DIR shared by two checkouts), this
    checkout builds in a subdirectory of its own, so it never runs the
    other checkout's sources.
    """
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    home = cache_home(out / "CMakeCache.txt")
    if home is not None and home != (ROOT / "perfbench").resolve():
        tag = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
        out = out / ("perfbench-" + tag)
    return out


def cache_home(cache):
    """The source directory a CMake cache was configured from, or None."""
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build():
    """Configure (cheap on a warm cache), then an incremental build of the
    measuring program and the CLI."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("no library sources beside perfbench/ (CMakeLists.txt, src/)")
        return False
    out = build_dir()
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", "4", "--target",
              "perfbench_measure", "refereectl"]]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=environment(),
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(step))
            return False
    return True


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "cmake", "src", "tools", "perfbench"):
        path = ROOT / base
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def reap_group(proc):
    """Kill whatever is left of the measuring program's process group and
    wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_measure(workload, seed, seconds, trace, commit):
    """One run of perfbench_measure; returns (context, result), or None on
    failure."""
    out = build_dir()
    cmd = [str(out / "perfbench_measure"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", ".bench_work",
           "--refereectl", str(out / "referee" / "tools" / "refereectl"),
           "--commit", commit]
    # perfbench_measure leads its own process group, so a timeout or a crash
    # cannot leave its refereectl daemon running.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=environment(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        reap_group(proc)
    if stdout is None:
        log(workload, "run timed out")
        return None
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log(workload, "perfbench_measure exited with", proc.returncode)
        return None
    context = json.loads(lines[-2])["context"]
    try:
        return context, shape(json.loads(lines[-1]), trace, context)
    except KeyError as missing:
        log(workload, missing.args[0])
        return None


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def shape(result, trace, context):
    """Keep exactly BENCHMARK.json's metrics of the run's kind: the
    end-to-end list untraced, the per-layer list traced. A per-layer metric
    the workload's replay never reaches reads 0 and is named under
    not_measured in the context."""
    listed = spec()["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    context["not_measured"] = []
    for m in listed:
        if m["name"] in measured:
            metrics[m["name"]] = measured[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            context["not_measured"].append(m["name"])
        else:
            raise KeyError("perfbench_measure did not report " + m["name"])
    result["metrics"] = metrics
    return result


def bounds():
    return {m["name"]: m.get("bound") for m in spec()["end_to_end"]}


def steady(args, commit):
    bound_of = bounds()
    values = {}
    context = None
    for i in range(args.steady):
        seed = args.seed + i
        got = run_measure(args.workload, seed, args.seconds, args.trace, commit)
        if got is None:
            return 1
        context, result = got
        if not result["correct"]:
            log("seed", seed, "failed", result["failed"], "ops")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        log("seed", seed, json.dumps({k: v["value"]
                                      for k, v in result["metrics"].items()}))
    summary = {"context": context, "workload": args.workload,
               "seeds": [args.seed + i for i in range(args.steady)],
               "metrics": {}}
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bound_of.get(name)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bound,
                                    "values": vals}
        flag = "" if bound is None or spread <= bound / 3 else "  NOISY"
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{bound if bound is not None else '-':>8}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def compare(base_path, change_path):
    base = json.loads(Path(base_path).read_text())
    change = json.loads(Path(change_path).read_text())
    if base["context"]["nproc"] != change["context"]["nproc"]:
        log("refusing to compare: nproc", base["context"]["nproc"], "vs",
            change["context"]["nproc"])
        return 2
    if base["workload"] != change["workload"]:
        log("refusing to compare different workloads")
        return 2
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    worse = 0
    for name, b in base["metrics"].items():
        c = change["metrics"].get(name)
        if c is None or not b["median"]:
            continue
        delta = (c["median"] - b["median"]) / b["median"]
        loss = -delta if better.get(name) == "higher" else delta
        bound = b.get("bound")
        verdict = "ok"
        if bound is not None and loss > bound:
            verdict = "WORSE"
            worse += 1
        print(f"{name:<28}{b['median']:>14.6g}{c['median']:>14.6g}"
              f"{delta:>+9.2%}  {verdict}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="repeat over this many consecutive seeds")
    parser.add_argument("--out", help="steadiness summary file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    commit = commit_id()
    if args.steady:
        return steady(args, commit)
    got = run_measure(args.workload, args.seed, args.seconds, args.trace,
                     commit)
    if got is None:
        return 1
    context, result = got
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
