"""The benchmark's trace hooks still find every layer they wrap."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_hooks_find_their_targets():
    # in a fresh process, so the wrapped layers stay out of this session
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
        "import tracer",
        "rec = tracer.install(tracer.Recorder())",
        "assert rec.missing == [], rec.missing",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
