#!/usr/bin/env python3
"""Host-time benchmark for beesim: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-references

Run from the repository root.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench.  Each
workload runs in its own process (the perfbench binary); this script turns
its raw measurements into metrics, checks every run's digest of simulated
outputs against perfbench/references.json (or, for a seed without a stored
reference, against the first untraced pass), prints every metric with its
unit and a PASS/FAIL line, and prints one JSON object as the last line.

--trace 0 reports the end-to-end metrics of the untraced leg; --trace 1
alternates untraced and traced passes and reports the per-module metrics.
`--workload all` runs every workload both ways.  See README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
REFERENCES = HERE / "references.json"

WORKLOADS = ["paper_campaign", "scale_32k", "md_queued", "gray_failure"]
DEFAULT_SEED = 1
# Each pass runs its runs on this many threads: host speed on a shared
# machine drifts per core, and spreading a pass over the cores averages it.
DEFAULT_JOBS = min(4, os.cpu_count() or 1)
HELDOUT_SEED = 9001
# Seeds whose per-run digests references.json stores.
REFERENCE_SEEDS = list(range(32)) + [HELDOUT_SEED]

# Tail percentiles tried from the highest down; one qualifies when at least
# TAIL_BEYOND runs lie beyond it.
TAIL_LADDER = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
TAIL_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# (name, unit) of the metrics each leg reports, in print order.
END_TO_END = [
    ("campaign_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
PER_LAYER = [
    ("sim.solve_s", "s"),
    ("sim.us_per_resolve", "us"),
    ("sim.flows_per_resolve", "count"),
    ("sim.solver_iterations", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.resolves", "count"),
    ("sim.deferred_resolves", "count"),
    ("sim.run_s", "s"),
    ("sim.flows_started", "count"),
    ("sim.flows_cancelled", "count"),
    ("sim.cancel_frac", "frac"),
    ("beegfs.hedges_issued", "count"),
    ("beegfs.hedge_win_frac", "frac"),
    ("beegfs.retries", "count"),
    ("beegfs.failovers", "count"),
    ("control.quarantines", "count"),
    ("qos.deferrals", "count"),
    ("faults.injected", "count"),
    ("harness.plan_s", "s"),
    ("harness.overhead_s", "s"),
    ("stats.summarize_s", "s"),
    ("topology.build_s", "s"),
    ("beegfs.deploy_s", "s"),
    ("ior.launch_s", "s"),
    ("beegfs.md_ops", "count"),
    ("beegfs.mdt_imbalance", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("failed_runs_frac", "frac"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, build failure...)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- pure helpers (unit-tested in test_run.py) ------------------------------


def valid_metric_name(name):
    return bool(NAME_RE.match(name))


def tail(values):
    """The highest ladder percentile with >= TAIL_BEYOND values beyond it.

    Returns (value, percentile, n).  Nearest-rank: the p-th percentile is the
    ceil(p/100 * n)-th smallest value, and the values beyond it are the
    n - ceil(p/100 * n) larger ranks.  With fewer than 2 * TAIL_BEYOND values
    no percentile qualifies; the maximum is returned with percentile None.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no values")
    for p in TAIL_LADDER:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n) without rounding error
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n
    return ordered[-1], None, n


def check_digests(passes, reference):
    """Count failed runs over all passes.

    A run fails when the binary flagged it (threw, deadlocked, IorResult::failed)
    or when its digest differs from the reference at its plan index.  Without
    a stored reference the first untraced pass is the reference.  Returns
    (attempted, failed, notes).
    """
    notes = []
    if reference is None:
        first = next((p for p in passes if p["leg"] == "untraced"), None)
        reference = [run[1] for run in first["runs"]] if first else []
        notes.append("no stored reference for this seed: runs checked against the "
                     "first untraced pass")
    attempted = failed = 0
    for index, p in enumerate(passes):
        runs = p["runs"]
        if len(runs) != len(reference):
            notes.append(f"pass {index} ({p['leg']}) has {len(runs)} runs, "
                         f"reference has {len(reference)}")
        for i, (_, digest, flagged) in enumerate(runs):
            attempted += 1
            if flagged or i >= len(reference) or digest != reference[i]:
                failed += 1
        if len(runs) < len(reference):
            attempted += len(reference) - len(runs)
            failed += len(reference) - len(runs)
        if "error" in p:
            notes.append(f"pass {index} ({p['leg']}): {p['error']}")
    return attempted, failed, notes


def median(values):
    return statistics.median(values)


def run_walls(passes):
    """Wall time of each distinct run of the plan: its median over the passes.

    Every pass replays the same runs, so replays are repeated measurements of
    one run, not more runs.  The median over them drops host hiccups, and the
    run count n is the plan's, whatever the host's speed.
    """
    count = min(len(p["runs"]) for p in passes)
    return [median([p["runs"][i][0] for p in passes]) for i in range(count)]


def end_to_end_metrics(raw):
    untraced = [p for p in raw["passes"] if p["leg"] == "untraced"]
    per_run = run_walls(untraced)
    tail_ms, pct, n = tail(per_run)
    metrics = {
        "campaign_s": median([p["wall_s"] for p in untraced]),
        "run_ms_p50": median(per_run),
        "run_ms_tail": tail_ms,
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    where = (f"p{pct:g}" if pct is not None else
             f"max: n < {2 * TAIL_BEYOND}, no percentile has {TAIL_BEYOND} runs beyond it")
    info = {"run_ms_tail": f"{where}; n={n} runs, each the median of {len(untraced)} passes"}
    return metrics, info


def _frac(num, den):
    return num / den if den else 0.0


def per_layer_metrics(raw, attempted, failed):
    untraced = [p for p in raw["passes"] if p["leg"] == "untraced"]
    traced = [p for p in raw["passes"] if p["leg"] == "traced"]
    if not traced:
        raise BenchError("no traced pass in a --trace 1 run")
    layers = [p["layers"] for p in traced]

    def med(key):
        return median([layer[key] for layer in layers])

    def med_of(fn):
        return median([fn(layer) for layer in layers])

    def attributed(layer):
        return (layer["deploy_s"] + layer["compose_s"] + layer["launch_s"] -
                layer["launch_nested_s"] + layer["run_s"] + layer["collect_s"] +
                layer["summarize_s"])

    def traced_thread_seconds(layer):
        # Runs execute on several threads: spans and run walls are both summed
        # thread-seconds, so their ratio is the share left unattributed.
        return layer["run_wall_s"] + layer["summarize_s"]

    traced_wall = median([p["wall_s"] for p in traced])
    untraced_wall = median([p["wall_s"] for p in untraced])
    unattributed = med_of(lambda l: 1.0 - attributed(l) / traced_thread_seconds(l))
    metrics = {
        "sim.solve_s": med("solve_s"),
        "sim.us_per_resolve": med_of(lambda l: 1e6 * _frac(l["solve_s"], l["resolves"])),
        "sim.flows_per_resolve": med_of(lambda l: _frac(l["flows_solved"], l["resolves"])),
        "sim.solver_iterations": med("solver_iterations"),
        "sim.events": med("events"),
        "sim.events_per_s": med_of(lambda l: _frac(l["events"], l["run_s"])),
        "sim.resolves": med("resolves"),
        "sim.deferred_resolves": med("deferred_resolves"),
        "sim.run_s": med("run_s"),
        "sim.flows_started": med("flows_started"),
        "sim.flows_cancelled": med("flows_cancelled"),
        "sim.cancel_frac": med_of(lambda l: _frac(l["flows_cancelled"], l["flows_started"])),
        "beegfs.hedges_issued": med("hedges_issued"),
        "beegfs.hedge_win_frac": med_of(lambda l: _frac(l["hedge_wins"], l["hedges_issued"])),
        "beegfs.retries": med("retries"),
        "beegfs.failovers": med("failovers"),
        "control.quarantines": med("quarantines"),
        "qos.deferrals": med("qos_deferrals"),
        "faults.injected": med("faults_injected"),
        "harness.plan_s": median(raw["plan_s"]),
        "harness.overhead_s": median([p["campaign_overhead_s"] for p in untraced]),
        "stats.summarize_s": med("summarize_s"),
        "topology.build_s": median(raw["topology_build_s"]),
        "beegfs.deploy_s": med("deploy_s"),
        "ior.launch_s": med("launch_s"),
        "beegfs.md_ops": med("md_ops"),
        "beegfs.mdt_imbalance": med_of(lambda l: _frac(l["mdt_imbalance_sum"], l["md_runs"])),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": _frac(traced_wall - untraced_wall, untraced_wall),
        "trace.unattributed_frac": unattributed,
        "failed_runs_frac": _frac(failed, attempted),
    }
    self_times = {
        "beegfs.deploy": med("deploy_s"),
        "harness.compose": med("compose_s"),
        "ior.launch": med("launch_s"),
        "sim.run (self)": med_of(lambda l: l["run_s"] - l["solve_s"] - l["launch_nested_s"]),
        "sim.solve": med("solve_s"),
        "harness.collect": med("collect_s"),
        "stats.summarize": med("summarize_s"),
        "unattributed": med_of(lambda l: traced_thread_seconds(l) - attributed(l)),
    }
    info = {"self_times": self_times, "traced_campaign_s": traced_wall,
            "untraced_campaign_s": untraced_wall}
    return metrics, info


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


# --- build and run ----------------------------------------------------------


def build():
    """Configure (once) and build the benchmark binary; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no beesim sources under {ROOT / 'src'}: run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("building the benchmark failed")


def run_binary(workload, seed, seconds, trace, jobs=1, passes=0, epsilon=None,
               utilization=False):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--jobs", str(jobs)]
    if passes:
        command += ["--passes", str(passes)]
    if epsilon is not None:
        command += ["--epsilon", str(epsilon)]
    if utilization:
        command += ["--utilization", "1"]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=seconds + 120 if not passes else 900)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: perfbench timed out") from e
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"{workload}: perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"{workload}: perfbench printed no result") from e


def load_references():
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def reference_for(references, workload, seed):
    return references.get("workloads", {}).get(workload, {}).get(str(seed))


def print_metrics(title, metrics, units, info):
    print(f"== {title}")
    for name, unit in units:
        note = info.get(name)
        suffix = f"   [{note}]" if note else ""
        print(f"  {name:<26} {metrics[name]:>16.6g} {unit}{suffix}")


def run_workload(workload, seed, seconds, trace, jobs, references, epsilon=None,
                 utilization=False):
    """Run one workload leg and print its report.

    Returns (correct, attempted, failed, metrics, units).
    """
    raw = run_binary(workload, seed, seconds, trace, jobs=jobs, epsilon=epsilon,
                     utilization=utilization)
    reference = reference_for(references, workload, seed)
    if epsilon is not None:
        reference = None  # ε-deferral may change simulated outputs by design
    attempted, failed, notes = check_digests(raw["passes"], reference)
    legs = sorted({p["leg"] for p in raw["passes"]})
    runs_per_pass = len(raw["passes"][0]["runs"])
    correct = failed == 0 and attempted > 0
    if trace:
        metrics, info = per_layer_metrics(raw, attempted, failed)
        units = PER_LAYER
    else:
        metrics, info = end_to_end_metrics(raw)
        units = END_TO_END
    print_metrics(f"{workload} seed={seed} trace={trace} ({len(raw['passes'])} passes, "
                  f"{runs_per_pass} runs/pass, legs: {', '.join(legs)})", metrics, units, info)
    if trace:
        print("  self time per traced pass (median, thread-seconds summed over runs):")
        for name, value in info["self_times"].items():
            print(f"    {name:<24} {value:>12.6g} s")
        print(f"  traced campaign_s {info['traced_campaign_s']:.6g} s vs untraced "
              f"{info['untraced_campaign_s']:.6g} s")
    print(f"  failed_runs_frac           {_frac(failed, attempted):>16.6g} frac   "
          f"[{failed} of {attempted} runs]")
    for note in notes:
        print(f"  note: {note}")
    source = "stored reference" if reference is not None else "first untraced pass"
    print(f"  digest check ({source}): {'PASS' if correct else 'FAIL'}")
    return correct, attempted, failed, metrics, units


def write_references(jobs):
    references = {
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "note": "per-run FNV-1a digests of simulated outputs, one list per workload and "
                "seed, in plan order (see README.md); regenerate only when the simulated "
                "outputs are meant to change",
        "workloads": {},
    }
    for workload in WORKLOADS:
        table = references["workloads"][workload] = {}
        for seed in REFERENCE_SEEDS:
            raw = run_binary(workload, seed, 1, 0, jobs=jobs, passes=1)
            runs = raw["passes"][0]["runs"]
            if any(flagged for _, _, flagged in runs) or "error" in raw["passes"][0]:
                raise BenchError(f"{workload} seed {seed}: a run failed; no reference written")
            table[str(seed)] = [digest for _, digest, _ in runs]
        log(f"{workload}: {len(REFERENCE_SEEDS)} seeds")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help="threads each pass runs its runs on (simulated results never "
                             f"depend on it; default {DEFAULT_JOBS})")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="override every run's solver epsilon (MiB/s); skips the "
                             "stored-reference check")
    parser.add_argument("--utilization", action="store_true",
                        help="attach the repo's FlowTracer to every single run "
                             "(RunConfig::observe.utilization); --trace 0 only")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.jobs < 1:
        parser.error("--seed must be >= 0, --seconds > 0, --jobs >= 1")
    if not args.write_references and args.workload is None:
        parser.error("--workload is required")
    if args.utilization and (args.trace or args.workload == "all"):
        parser.error("--utilization applies to the untraced leg of one workload")

    try:
        build()
        if args.write_references:
            write_references(args.jobs)
            return 0
        references = load_references()
        if args.workload != "all":
            correct, attempted, failed, metrics, units = run_workload(
                args.workload, args.seed, args.seconds, args.trace, args.jobs, references,
                args.epsilon, args.utilization)
            print(result_line(correct, attempted, failed, metrics, units))
            return 0
        all_correct, total, total_failed = True, 0, 0
        started = time.monotonic()
        for workload in WORKLOADS:
            for trace in (0, 1):
                correct, attempted, failed, _, _ = run_workload(
                    workload, args.seed, args.seconds, trace, args.jobs, references,
                    args.epsilon)
                all_correct &= correct
                total += attempted
                total_failed += failed
        print(f"== all workloads, both legs: {'PASS' if all_correct else 'FAIL'} "
              f"({total_failed} of {total} runs failed, {time.monotonic() - started:.0f} s)")
        return 0 if all_correct else 1
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
