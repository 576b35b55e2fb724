"""The benchmark's trace hooks find every layer they wrap, except the
five retired with the path sums that moved to the tests (``exact``): a
missing hook reads 0 in the benchmark, and any other one fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# hooks whose targets left the package, in the order the tracer installs them
RETIRED = [
    "FreeProduct.ball",
    "freewalk.walks.convolve_powers",
    "freewalk.walks.is_radial",
    "freewalk.green.sphere_sizes",
    "Automaton.enumerate_sphere",
]
PREAMBLE = [
    "import sys",
    f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
    "import tracer",
    "rec = tracer.install(tracer.Recorder())",
    f"assert rec.missing == {RETIRED!r}, rec.missing",
]


def _run(lines):
    # in a fresh process, so the wrapped layers stay out of this session
    return subprocess.run(
        [sys.executable, "-c", "\n".join(PREAMBLE + lines)],
        capture_output=True, text=True, timeout=120,
    )


def test_trace_hooks_find_their_targets():
    proc = _run([])
    assert proc.returncode == 0, proc.stderr


def test_traced_report_counts_green_calls(tmp_path):
    # the repeat counter reads green's positional arguments and the
    # evaluator's single_syllable_support on every call
    config = ROOT / "configs" / "f2_srw.json"
    proc = _run([
        "from freewalk import cli",
        f"rc = cli.main(['report', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])",
        "assert rc == 0, rc",
        "calls = {k: v['calls'] for k, v in rec.summary()[0].items()}",
        "assert calls.get('green.green', 0) > 0, calls",
        "assert calls.get('green.first_passage', 0) > 0, calls",
    ])
    assert proc.returncode == 0, proc.stderr


def test_traced_kernel_layers_count_their_calls():
    # the hooks count direct calls of the truncated kernel's Perron root
    # and induced Green function; the degeneracy verdict is in closed form
    # and takes no Perron root, on the simple random walk or a skewed one
    proc = _run([
        "from fractions import Fraction",
        "from freewalk.groups import FreeProduct, LatticeFactor",
        "from freewalk.parabolic import (degeneracy_test, first_return_kernel,",
        "                                induced_green, kernel_spectral_radius)",
        "from freewalk.walks import StepMeasure, uniform_on_generators",
        "f2 = FreeProduct([LatticeFactor(1, 'a'), LatticeFactor(1, 'b')])",
        "def calls():",
        "    return {k: v['calls'] for k, v in rec.summary()[0].items()}",
        "mu = uniform_on_generators(f2)",
        "third, sixth = Fraction(1, 3), Fraction(1, 6)",
        "skew = StepMeasure(f2, {((0, (1,)),): third, ((0, (-1,)),): third,",
        "                        ((1, (1,)),): sixth, ((1, (-1,)),): sixth})",
        "for m in (mu, skew):",
        "    degeneracy_test(m, m.first_passage_system.radius)",
        "seen = calls()",
        "assert seen['parabolic.degeneracy'] == 2, seen",
        "assert 'parabolic.spectral_radius' not in seen, seen",
        "kern = first_return_kernel(mu, 0, 1.0, 20, 6, exact=False)",
        "kernel_spectral_radius(kern, f2, 30)",
        "kernel_spectral_radius(kern, f2, 10)",
        "induced_green(kern, f2, (), ((0, (1,)),), 1.0)",
        "seen = calls()",
        "assert seen['parabolic.spectral_radius'] == 2, seen",
        "assert seen.get('parabolic.induced_green', 0) >= 1, seen",
    ])
    assert proc.returncode == 0, proc.stderr
