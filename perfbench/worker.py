"""One benchmark process: set up, then run one task in a closed loop.

``run.py`` starts this file with one JSON argument (the spec) and reads the
JSON result it writes.  Set-up is the import of the package from ``src/``
(which imports numpy and networkx) and the load of the config, which parses
it and validates the step measure.  A task is then repeated, one call after
the other, while the next call is expected to end within ``seconds``; every
call is timed on its own.  With ``trace`` set, the package's layers are
wrapped first (see ``tracer``) and the spans are written out at the end.

The speed of a shared machine drifts by 20-30 % over seconds to minutes, so
the untraced process also times a fixed probe loop: every ``PROBE_PERIOD_S``
during each call (from a timer signal; the probe's own time is taken out of
the call's time), and ``MIN_PROBES`` times in a row after set-up.  ``run.py``
scales each time by the mean probe time measured beside it.
"""

import contextlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from fractions import Fraction


def run_report(spec, cfg, out):
    from freewalk import cli

    argv = ["report", "--config", spec["config"], "--out", out,
            "--seed", str(spec["seed"])]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stderr": err.getvalue()}, None


def run_kernels(spec, cfg, out):
    """The exact and float first-return kernels at r = 1, and the verdict at R.

    The inputs are fixed, so the seed has no effect here.  They use factor a:
    by symmetry factor b gives the same kernels, but its exact kernel costs
    about 10 % more, and a seed that picked the factor would make the times
    bimodal.
    """
    from freewalk import parabolic

    fid = 0
    measure, group = cfg.measure, cfg.group
    elems = [()] + [((fid, (j,)),) for j in range(1, 4)]
    kernels = {
        "exact": parabolic.first_return_kernel(measure, fid, Fraction(1),
                                               spec["exact_len"]),
        "float": parabolic.first_return_kernel(measure, fid, 1.0, 140, 11,
                                               exact=False),
    }
    induced = {key: [parabolic.induced_green(k, group, (), g, 1.0) for g in elems]
               for key, k in kernels.items()}
    verdict = parabolic.degeneracy_test(measure, spec["R"])
    payload = {
        "r": 1.0,
        "degeneracy": json.loads(verdict.to_json()),
        **{key: {"row": {str(p[0]): str(w) for p, w in k.row.items()},
                 "induced": induced[key]}
           for key, k in kernels.items()},
    }
    return {"rc": 0, "stderr": ""}, payload


TASKS = {"report": run_report, "kernels": run_kernels}

PROBE_LOOPS = 30000  # about 3 ms on a 2-vCPU Xeon VM
PROBE_PERIOD_S = 0.125
MIN_PROBES = 16


def probe():
    """A fixed loop on small integers: no allocation the garbage collector
    tracks, and no code of the package, so only the machine's speed moves it."""
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


def probe_times(n):
    """Time ``n`` probes in a row."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t0)
    return out


class SpeedProbe:
    """Times a probe every ``PROBE_PERIOD_S`` while the block runs.

    The handler runs in the main thread between bytecodes, so a long call
    into C delays a probe but never overlaps it.
    """

    def __init__(self):
        self.samples = []  # (start, duration) of each probe

    def _fire(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def before(self, t):
        """The times of the probes that started before ``t``."""
        return [d for start, d in self.samples if start < t]

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _versions():
    import networkx
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "networkx": networkx.__version__,
    }


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from freewalk import cli, config  # noqa: F401  (cli pulls in every layer)

    cfg = config.load_config(spec["config"])
    result = {"setup_done": time.monotonic()}
    if not spec["trace"]:
        result["setup_probes_s"] = probe_times(MIN_PROBES)
    if spec.get("setup_only"):
        _write(spec["result"], result)
        return
    rec = None
    if spec["trace"]:
        import tracer

        rec = tracer.install(tracer.Recorder())
    task = TASKS[spec["task"]]
    iterations = []
    loop_start = time.perf_counter()
    while True:
        out = os.path.join(spec["out"], f"it{len(iterations)}")
        os.makedirs(out)
        speed = SpeedProbe()
        with speed if not spec["trace"] else contextlib.nullcontext():
            t0 = time.perf_counter()
            info, payload = task(spec, cfg, out)
            t1 = time.perf_counter()
        probes = speed.before(t1)
        wall = t1 - t0 - sum(probes)
        if payload is not None:
            _write(os.path.join(out, "kernels.json"), payload)
        if not spec["trace"] and len(probes) < MIN_PROBES:
            probes = probes + probe_times(MIN_PROBES - len(probes))
        iterations.append({"wall_s": wall, "probes_s": probes, "out": out, **info})
        elapsed = time.perf_counter() - loop_start
        if len(iterations) >= spec["max_iterations"]:
            break
        if elapsed + wall > spec["seconds"]:
            break
    result["iterations"] = iterations
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    if rec is not None:
        layers, total_self = rec.summary()
        result["trace"] = {
            "layers": layers,
            "total_self_s": total_self,
            "counters": rec.counters,
            "missing_hooks": rec.missing,
            "spans": len(rec.start),
            "overhead_s": len(rec.start) * tracer.span_cost(),
        }
        rec.write_spans(os.path.join(spec["out"], "spans.csv"))
    _write(spec["result"], result)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
