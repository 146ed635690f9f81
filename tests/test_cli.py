"""End-to-end command line coverage through main(argv)."""

import pytest

from totbond.cli import main, resolve_corpus
from totbond.families import cycle, path
from totbond.formats import graph6_bytes, write_graph6


def g6(g):
    return graph6_bytes(g).decode()


@pytest.fixture
def graph_file(tmp_path):
    def make(*graphs, name="in.g6"):
        p = tmp_path / name
        with open(p, "wb") as fh:
            write_graph6(graphs, fh)
        return str(p)

    return make


class TestGen:
    def test_family(self, capsys):
        assert main(["gen", "--family", "cycle:5"]) == 0
        assert capsys.readouterr().out.strip() == g6(cycle(5))

    def test_trees(self, capsys):
        assert main(["gen", "--trees", "7"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 11

    def test_classes_filtered(self, capsys):
        assert main(["gen", "--classes", "5", "--triangle-free"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 14

    def test_corpus_range(self, capsys):
        assert main(["gen", "--corpus", "paths:4..6"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [g6(path(4)), g6(path(5)), g6(path(6))]


class TestScalarCommands:
    def test_gamma(self, capsys, graph_file):
        assert main(["gamma-t", graph_file(path(5), cycle(4))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"GAMMA graph={g6(path(5))} ")
        assert "gamma_t=3" in lines[0]
        assert "gamma_t=2" in lines[1]

    def test_stdin_is_parsed_in_memory(self, capsys, graph_file, monkeypatch):
        import builtins
        import io

        f = graph_file(path(5), cycle(4))
        assert main(["gamma-t", f]) == 0
        from_file = capsys.readouterr().out
        with open(f, "rb") as fh:
            data = fh.read()

        real_open = builtins.open

        def no_writes(file, mode="r", *args, **kwargs):
            assert not set(mode) & set("wax+"), f"opened {file!r} for writing"
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_writes)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["gamma-t", "-"]) == 0
        assert capsys.readouterr().out == from_file

    def test_bondage(self, capsys, graph_file):
        assert main(["bondage", graph_file(cycle(6))]) == 0
        out = capsys.readouterr().out
        assert "status=finite" in out
        assert "b_t=3" in out

    def test_bondage_infinite(self, capsys, graph_file):
        assert main(["bondage", graph_file(cycle(3))]) == 0
        out = capsys.readouterr().out
        assert "status=infinite" in out
        assert "criterion=" in out

    def test_bondage_cap(self, capsys, graph_file):
        assert main(["bondage", graph_file(cycle(6)), "--cap", "2"]) == 0
        assert "status=unknown-above-cap" in capsys.readouterr().out

    def test_bounds(self, capsys, graph_file):
        assert main(["bounds", graph_file(path(7))]) == 0
        out = capsys.readouterr().out
        assert out.startswith("BOUNDS ")
        assert "tree-sridharan=holds" in out
        assert "tree-rad=not-applicable" in out


class TestWitness:
    def test_rule_with_anchors(self, capsys, graph_file):
        f = graph_file(cycle(4))
        assert main(["witness", f, "--rule", "cycle4", "--anchors", "0,1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "rule=cycle4" in out
        assert "verdict=valid-bondage-set" in out

    def test_scan(self, capsys, graph_file):
        f = graph_file(cycle(4))
        assert main(["witness", f, "--scan"]) == 0
        out = capsys.readouterr().out
        assert "WITNESS rule=cycle4" in out

    def test_multipartite_no_input(self, capsys):
        assert main(["witness", "--rule", "multipartite", "--parts", "2,2"]) == 0
        out = capsys.readouterr().out
        assert "rule=multipartite" in out
        assert "claimed=10" in out or "claimed_bound=10" in out

    def test_wrong_anchor_count_is_clean_error(self, graph_file):
        f = graph_file(cycle(4))
        with pytest.raises(SystemExit, match="takes 4 anchors, got 2"):
            main(["witness", f, "--rule", "cycle4", "--anchors", "0,1"])

    def test_missing_input_file_is_clean_error(self):
        with pytest.raises(SystemExit, match="no such input file"):
            main(["gamma-t", "/tmp/totbond-no-such-file.g6"])


class TestDetect:
    def test_g4_on_cube(self, capsys, graph_file):
        from totbond.corpus import cube

        assert main(["detect", graph_file(cube()), "--rules", "g4"]) == 0
        out = capsys.readouterr().out
        assert "DETECT rule=g4" in out
        assert "found=True" in out or "g4-a" in out

    def test_low_degree_graph_gets_error_record(self, capsys, graph_file):
        f = graph_file(cycle(4))
        assert main(["detect", f, "--rules", "borodin,g4"]) == 0
        out = capsys.readouterr().out
        assert out.count("error=detector-requires-minimum-degree-3") == 2

    def test_borodin_readings_differ(self, capsys, graph_file):
        from totbond.corpus import icosahedron

        f = graph_file(icosahedron())
        assert main(["detect", f, "--rules", "borodin", "--reading", "at-most"]) == 0
        loose = capsys.readouterr().out
        assert main(["detect", f, "--rules", "borodin", "--reading", "exact"]) == 0
        strict = capsys.readouterr().out
        assert loose != strict


class TestDischarge:
    def test_summary(self, capsys, graph_file):
        from totbond.corpus import cube

        assert main(["discharge", graph_file(cube())]) == 0
        out = capsys.readouterr().out
        assert "DISCHARGE" in out
        assert "total_initial=-8" in out

    def test_full_rows(self, capsys, graph_file):
        from totbond.corpus import cube

        assert main(["discharge", graph_file(cube()), "--full"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in out if ln.strip().startswith("vertex=")) == 8
        assert sum(1 for ln in out if ln.strip().startswith("face=")) == 6


class TestCampaign:
    def test_clean_run_exits_zero(self, capsys):
        rc = main(["campaign", "--theorem", "thm-paths", "--corpus", "paths:4..8", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SUMMARY theorem=thm-paths checked=5 holds=5" in out

    def test_violation_exits_one(self, capsys):
        rc = main(
            ["campaign", "--theorem", "thm-tree-sridharan", "--corpus", "paths:6..6", "--jobs", "1"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "violations=1" in out
        assert "status=violated" in out

    def test_search(self, capsys):
        rc = main(["search", "--bt", "2", "--corpus", "cycles:4..7", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len([ln for ln in out if "status=match" in ln]) == 3  # C4, C5, C7


class TestCorpusResolution:
    def test_named(self):
        assert len(resolve_corpus("planar-min3")) >= 15

    def test_range(self):
        assert [g.n for g in resolve_corpus("cycles:3..5")] == [3, 4, 5]

    def test_trees_range(self):
        assert len(resolve_corpus("trees:5..6")) == 3 + 6

    def test_file(self, graph_file):
        f = graph_file(path(4), path(5))
        assert [g.n for g in resolve_corpus(f)] == [4, 5]

    def test_missing(self):
        with pytest.raises(SystemExit):
            resolve_corpus("no-such-corpus")

    def test_empty_range(self):
        with pytest.raises(SystemExit):
            resolve_corpus("paths:9..4")
