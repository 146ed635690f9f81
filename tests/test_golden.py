"""Golden CLI records: solver speedups must not change a single byte.

The hashes were taken from the CLI output of the code before the packing
lower bound and the shared per-graph values of the witness scan.  Both
only skip work whose outcome is already known, so every record, down to
the witness sets the search finds first, must come out the same.
"""

import hashlib

import pytest

from totbond.cli import main
from totbond.corpus import girth4_corpus, planar_min3_corpus
from totbond.formats import write_graph6

GIRTH4_N36 = {
    "gamma-t": "916cd41d09f86071ffdefac50d0125d17c8a1e678bdef49d4118c1f079df8bb9",
    "witness-scan": "8a21d2c92c1cf77b03b72e80e799561c00f5f5c4b0f2ce8fccd4aba96756a8e6",
}
PLANAR_D8_N20 = "d4ed7d0fe64a24c692be77c7b46b302a7f02f92f0ee710cd1ff6101824f1bc81"


def _write(tmp_path, name, graphs):
    p = tmp_path / name
    with open(p, "wb") as fh:
        write_graph6(graphs, fh)
    return str(p)


def _digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture(scope="module")
def girth4_small():
    return [g for g in girth4_corpus() if g.n <= 36]


def test_gamma_t_records(tmp_path, capsys, girth4_small):
    f = _write(tmp_path, "girth4.g6", girth4_small)
    assert _digest(capsys, ["gamma-t", f]) == GIRTH4_N36["gamma-t"]


def test_witness_scan_records(tmp_path, capsys, girth4_small):
    f = _write(tmp_path, "girth4.g6", girth4_small)
    assert _digest(capsys, ["witness", "--scan", f]) == GIRTH4_N36["witness-scan"]


def test_planar_d8_campaign_records(tmp_path, capsys):
    f = _write(tmp_path, "planar.g6", [g for g in planar_min3_corpus() if g.n <= 20])
    argv = ["campaign", "--theorem", "thm-planar-d8", "--corpus", f,
            "--work-budget", "200000", "--jobs", "1"]
    assert _digest(capsys, argv) == PLANAR_D8_N20
