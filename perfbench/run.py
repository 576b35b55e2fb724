"""The freewalk benchmark: one workload per run, checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload once
    python3 perfbench/run.py --aa --workload NAME --runs 5 --seconds S

Run from the repository root.  A run starts fresh Python processes (see
``worker.py``), one after the other, each loading the package from ``src/``:
one that repeats the workload's task in a closed loop for about
``--seconds``, and around it a few that only set up, to time set-up.  With
``--trace 1`` one process runs the task once with every layer wrapped (see
``tracer.py``) and the per-layer metrics are printed instead.
Times are scaled to a reference machine speed: each is multiplied by
``PROBE_REF_S`` over the mean time of the probe loop that ``worker.py`` ran
beside it, so that the drift of a shared machine's speed cancels out.
Every output is checked against ``refs.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Run records (environment, samples, failures, the report
digest) go to ``.bench_out/results/``.

``--aa`` runs two interleaved sets of ``--runs`` runs of the same code on
distinct seeds, and prints per-metric medians, quartiles and spreads and
whether the sets agree within the bounds in ``BENCHMARK.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import refs  # noqa: E402

WORKLOADS = {
    "report_f2": {"task": "report", "config": "configs/f2_srw.json"},
    "report_z2z3": {"task": "report", "config": "configs/z2z3.json"},
    "report_z2z2z2": {"task": "report", "config": "configs/z2z2z2.json"},
    "kernels_f2": {"task": "kernels", "config": "configs/f2_srw.json"},
}
SETUP_SAMPLES = 4  # set-up-only processes per run, besides the task process
EXACT_KERNEL_LEN = 20  # L of the exact kernel; the cost grows ~3.3x per +2
RUN_LIMIT_S = 170  # every process of one run must end by then
PROBE_REF_S = 0.0028  # reference time of one probe (the median on a 2-vCPU Xeon VM)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def at_ref_speed(seconds, probes_s):
    """``seconds`` as they would read on a machine where a probe takes
    ``PROBE_REF_S``, given the probe times measured beside them."""
    return seconds * PROBE_REF_S / statistics.fmean(probes_s)


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _environment(seed):
    def cmd(*argv):
        # the ceiling keeps git from reporting a repository that encloses
        # a checkout which is not one itself
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": cmd("git", "rev-parse", "HEAD"),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_vars_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_used": {v: "1" for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "platform": platform.platform(),
    }


def _spawn(spec, deadline):
    """Run one worker to completion; its result gains ``setup_s``, timed
    from the spawn, and ``setup_ref_s``, that time at reference speed."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for another process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_done"] - spawned
    if "setup_probes_s" in result:
        result["setup_ref_s"] = at_ref_speed(result["setup_s"], result["setup_probes_s"])
    return result


def _check_iterations(workload, iterations):
    """Tally every iteration's operations and collect their report digests."""
    tally = checks.Tally()
    digests = []
    name = Path(WORKLOADS[workload]["config"]).stem
    report = WORKLOADS[workload]["task"] == "report"
    ref = checks.Reference(name) if report else None
    for it in iterations:
        if report:
            tally.merge(checks.check_report(it["out"], name, ref, it["rc"], it["stderr"]))
        else:
            tally.merge(checks.check_kernels(Path(it["out"]) / "kernels.json"))
        digests.append(checks.digest(it["out"]))
    return tally, digests


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (contract result, record for the log)."""
    if workload not in WORKLOADS:
        raise RunError(f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[workload]
    for need in ("src/freewalk/cli.py", wl["config"]):
        if not (ROOT / need).is_file():
            raise RunError(f"missing {need}: run from a full checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    env = _environment(seed)
    base = ROOT / ".bench_out" / workload / f"seed{seed}-trace{trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    def spec(tag, **extra):
        out = base / tag
        out.mkdir()
        return {"root": str(ROOT), "config": str(ROOT / wl["config"]),
                "task": wl["task"], "seed": seed, "seconds": seconds,
                "R": refs.tree_radius(3), "exact_len": EXACT_KERNEL_LEN,
                "out": str(out), "trace": False, "max_iterations": 1000,
                "result": str(out / "result.json"), **extra}

    def setup_sample(i):
        return _spawn(spec(f"setup{i}", setup_only=True), deadline)

    if trace:
        main = _spawn(spec("traced", trace=True, max_iterations=1), deadline)
        setups = [main]
    else:
        # half of the set-up samples come after the task, so that they span
        # the run as the task's own samples do
        setups = [setup_sample(i) for i in range(SETUP_SAMPLES // 2)]
        main = _spawn(spec("task"), deadline)
        setups.append(main)
        setups += [setup_sample(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
    iterations = main["iterations"]
    tally, digests = _check_iterations(workload, iterations)
    walls = [it["wall_s"] for it in iterations]
    correct = not tally.wrong and len(set(digests)) == 1
    record_times = {"wall_samples_s": walls,
                    "setup_samples_s": [s["setup_s"] for s in setups]}
    if trace:
        metrics = _layer_metrics(main)
    else:
        walls_ref = [at_ref_speed(it["wall_s"], it["probes_s"]) for it in iterations]
        setups_ref = [s["setup_ref_s"] for s in setups]
        metrics = {
            "wall_ref_s": (statistics.median(walls_ref), "s"),
            "setup_s": (statistics.median(setups_ref), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
            "oracle_err": (tally.max_err, "ratio"),
        }
        record_times.update({
            "wall_ref_samples_s": walls_ref,
            "setup_ref_samples_s": setups_ref,
            "wall_probe_means_s": [statistics.fmean(it["probes_s"]) for it in iterations],
            "setup_probe_means_s": [statistics.fmean(s["setup_probes_s"]) for s in setups],
            "wall_median_s": statistics.median(walls),
        })
    failed = len(tally.failures)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "versions": main["versions"], **record_times,
        "attempted": tally.attempted, "failed": failed,
        "fail_ratio": failed / tally.attempted, "failures": tally.failures,
        "digests": sorted(set(digests)), "correct": correct,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if trace:
        record["trace_summary"] = main["trace"]
        record["spans_csv"] = str(base / "traced" / "spans.csv")
    for it in iterations:
        shutil.rmtree(it["out"], ignore_errors=True)
    result = {
        "correct": correct, "attempted": tally.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def _layer_metrics(traced):
    """Every per-layer metric of BENCHMARK.json, from the traced process."""
    tr = traced["trace"]
    layers, counters = tr["layers"], tr["counters"]
    wall = traced["iterations"][0]["wall_s"]
    lookups = counters.get("green.lookups", 0)
    repeats = counters.get("green.repeats", 0)
    derived = {
        "green.repeat_ratio": repeats / lookups if lookups else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_s": tr["overhead_s"],
        "trace.unaccounted_share": (wall - tr["total_self_s"]) / wall,
        "trace.spans": tr["spans"],
    }
    out = {}
    for metric in _benchmark_spec()["per_layer"]:
        name = metric["name"]
        layer, _, field = name.rpartition(".")
        span = layers.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
        if name in derived:
            value = derived[name]
        elif field in ("s", "self_s"):
            value = span[field]
        elif field in ("calls", "builds"):
            value = span["calls"]
        else:  # elems, support, rc: counted by the tracer's hooks
            value = counters.get(name, 0)
        out[name] = (value, metric["unit"])
    return out


def _print_run(result, record):
    m = result["metrics"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  iterations {len(record['wall_samples_s'])}")
    if not record["trace"]:
        n_wall, n_setup = len(record["wall_samples_s"]), len(record["setup_samples_s"])
        speed = statistics.median(record["wall_probe_means_s"]) / PROBE_REF_S
        print(f"  wall_ref_s   {m['wall_ref_s']['value']:.4f} s   (median of {n_wall},"
              f" at reference speed)")
        print(f"  wall_s       {record['wall_median_s']:.4f} s   (median of {n_wall},"
              f" as measured; probe time x{speed:.3f} of reference)")
        print(f"  setup_s      {m['setup_s']['value']:.4f} s   (median of {n_setup},"
              f" at reference speed)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:.1f} MB  (1 process)")
        print(f"  oracle_err   {m['oracle_err']['value']:.3e}  (max over checked values)")
    else:
        for key in sorted(m):
            print(f"  {key:40s} {m[key]['value']:.6g} {m[key]['unit']}")
        for hook in record["trace_summary"]["missing_hooks"]:
            print(f"  warning: no {hook} to trace; its layer reads 0")
    print(f"  fail_ratio   {record['failed']}/{record['attempted']} = "
          f"{record['fail_ratio']:.4f}")
    for f in record["failures"]:
        print(f"    failed: {f}")
    print(f"  digest       {', '.join(record['digests'])}")
    print(f"  environment  {json.dumps({**record['environment'], **record['versions']})}")


def _save(record):
    out = ROOT / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(out / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


# -- A/A: two sets of the same code ----------------------------------------------

def _spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as the stdlib gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return med, q1, q3, (q3 - q1) / med


def aa(workload, runs, seconds, seed_base):
    """Interleave two sets of runs; report medians, spreads and agreement."""
    sets = {"A": [], "B": []}
    for i in range(runs):
        for j, key in enumerate(sets):
            seed = seed_base + 2 * i + j
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            if proc.returncode != 0:
                raise RunError(f"run failed: {proc.stderr.strip()[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            sets[key].append(res)
            print(f"  {key} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
    summary = {}
    for spec in _benchmark_spec()["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        row = {}
        for key, results in sets.items():
            row[key] = _spread([r["metrics"][name]["value"] for r in results])
        pooled = _spread([r["metrics"][name]["value"]
                          for results in sets.values() for r in results])
        (a, *_), (b, *_) = row["A"], row["B"]
        shift = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        # the spread is taken over both sets' runs together; set-up time is
        # gated on its median only, as in the acceptance check
        agree = shift <= bound and (name == "setup_s" or pooled[3] <= bound)
        steady = name == "setup_s" or pooled[3] < bound / 3
        summary[name] = {"A": row["A"], "B": row["B"], "pooled": pooled,
                         "shift": shift, "agree": agree, "steady": steady}
        print(f"{workload} {name:12s} A {a:.5g} [{row['A'][1]:.5g}, {row['A'][2]:.5g}]"
              f"  B {b:.5g} [{row['B'][1]:.5g}, {row['B'][2]:.5g}]"
              f"  spread({2 * runs}) {pooled[3]:.4f}  shift {shift:+.4f}"
              f"  bound {bound}  {'agree' if agree else 'DISAGREE'}"
              f"{'' if steady else '  (spread above bound/3)'}")
    ok = all(s["agree"] for s in summary.values())
    correct = all(r["correct"] for results in sets.values() for r in results)
    out = ROOT / ".bench_out" / "aa"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{workload}.json", "w") as fh:
        json.dump({"workload": workload, "runs": sets, "summary": summary,
                   "agree": ok, "correct": correct}, fh, indent=1)
    print(json.dumps({"workload": workload, "agree": ok, "correct": correct}))
    return ok and correct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="closed-loop measuring time (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", action="store_true", help="A/A mode: two sets of runs")
    p.add_argument("--runs", type=int, default=5, help="runs per A/A set")
    args = p.parse_args(argv)
    try:
        seconds = args.seconds
        if seconds is None:
            seconds = _benchmark_spec()["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.aa:
            return 0 if all([aa(n, args.runs, seconds, args.seed) for n in names]) else 1
        results = {}
        for name in names:
            result, record = run(name, args.seed, seconds, args.trace)
            _save(record)
            _print_run(result, record)
            results[name] = result
    except (RunError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
