"""The benchmark tracer finds every binding site it wraps.

`bench/tracing.install` wraps functions under the names the CLI modules
bind them to (`totbond.cli.graph6_bytes`, `totbond.bondage._exists_cover`,
...).  A refactor that drops one of those names makes every traced
benchmark run crash, so install the tracer here, in a fresh interpreter
whose path starts with `bench` and `src`.  It writes no bytecode (`-B`):
`-I` ignores PYTHONDONTWRITEBYTECODE, and a cache left in the checkout
changes how fast a later benchmark run imports the package.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = (
    "import sys; sys.path[:0] = sys.argv[1:]; "
    "from tracing import Tracer, install; tracer = Tracer(); install(tracer)"
)


def _run_traced(code: str) -> subprocess.CompletedProcess:
    paths = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", INSTALL + code, *paths],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_install_finds_every_binding_site():
    _run_traced("")


def test_range_corpus_goes_through_the_wrapped_tree_walk():
    """trees:5..7 holds 3 + 6 + 11 trees, each counted by the wrapper."""
    proc = _run_traced(
        "; import totbond.cli as cli; graphs = cli.resolve_corpus('trees:5..7'); "
        "print(len(graphs), tracer.counters['trees.enumerate.items'])"
    )
    assert proc.stdout.split() == ["20", "20"]
