"""The benchmark's trace hooks still find every layer they wrap."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PREAMBLE = [
    "import sys",
    f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
    "import tracer",
    "rec = tracer.install(tracer.Recorder())",
    "assert rec.missing == [], rec.missing",
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
    # degeneracy_test reaches the Perron root through the module, so the
    # hook sees one call per ladder and rung: the two f2 factors are
    # exchanged by a swap that fixes the simple random walk and share one
    # ladder (3 calls), while weights 1/3 on a^+-1 and 1/6 on b^+-1 give
    # each factor its own (6 calls)
    proc = _run([
        "from fractions import Fraction",
        "from freewalk.groups import FreeProduct, LatticeFactor",
        "from freewalk.parabolic import degeneracy_test, first_return_kernel, induced_green",
        "from freewalk.walks import StepMeasure, uniform_on_generators",
        "f2 = FreeProduct([LatticeFactor(1, 'a'), LatticeFactor(1, 'b')])",
        "def radius_calls(mu):",
        "    before = rec.summary()[0].get('parabolic.spectral_radius', {}).get('calls', 0)",
        "    degeneracy_test(mu, mu.first_passage_system.radius)",
        "    return rec.summary()[0]['parabolic.spectral_radius']['calls'] - before",
        "mu = uniform_on_generators(f2)",
        "n_srw = radius_calls(mu)",
        "assert n_srw == 3, n_srw",
        "third, sixth = Fraction(1, 3), Fraction(1, 6)",
        "skew = StepMeasure(f2, {((0, (1,)),): third, ((0, (-1,)),): third,",
        "                        ((1, (1,)),): sixth, ((1, (-1,)),): sixth})",
        "n_skew = radius_calls(skew)",
        "assert n_skew == 6, n_skew",
        "kern = first_return_kernel(mu, 0, 1.0, 20, 6, exact=False)",
        "induced_green(kern, f2, (), ((0, (1,)),), 1.0)",
        "calls = {k: v['calls'] for k, v in rec.summary()[0].items()}",
        "assert calls.get('parabolic.induced_green', 0) >= 1, calls",
    ])
    assert proc.returncode == 0, proc.stderr
