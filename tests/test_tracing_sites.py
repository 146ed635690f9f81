"""The benchmark tracer finds every binding site it wraps.

`bench/tracing.install` wraps functions under the names the CLI modules
bind them to (`totbond.cli.graph6_bytes`, `totbond.bondage._exists_cover`,
...).  A refactor that drops one of those names makes every traced
benchmark run crash, so install the tracer here, in a fresh interpreter
whose path starts with `bench` and `src`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = (
    "import sys; sys.path[:0] = sys.argv[1:]; "
    "from tracing import Tracer, install; install(Tracer())"
)


def test_install_finds_every_binding_site():
    paths = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", INSTALL, *paths],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
