"""End-to-end command line coverage through main(argv), and in a child
process where a pipe is involved."""

import os
import re
import subprocess
import sys

import pytest
from oracles import write_graph6

from totbond.cli import main, resolve_corpus
from totbond.families import cycle, path
from totbond.formats import graph6_bytes
from totbond.graphs import Graph


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    @pytest.mark.parametrize("n", ["0", "17"])
    def test_trees_order_out_of_range(self, n):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--trees", n])
        assert str(exc.value).startswith("--trees: tree ")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--classes", "0"),
            ("--classes", "10"),
            ("--family", "path:0"),
            ("--family", "bogus:3"),
            ("--family", "path:x"),
            ("--family", "path"),
            ("--family", "cycle:"),
            ("--family", "complete-bipartite:3"),
            ("--family", "path:3,9"),
        ],
    )
    def test_bad_order_or_family_exits_with_one_line(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["gen", flag, value])
        assert str(exc.value).startswith(f"{flag}: ")
        assert "\n" not in str(exc.value)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--trees", "7", "--max-edges", "1"], "--max-edges"),
            (["--family", "path:3", "--max-edges", "0"], "--max-edges"),
            (["--trees", "7", "--triangle-free"], "--triangle-free"),
            (["--corpus", "paths:3..5", "--planar"], "--planar"),
        ],
    )
    def test_class_filter_without_classes_exits_with_one_line(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["gen", *argv])
        assert str(exc.value) == f"{flag}: filters only --classes"
        assert capsys.readouterr().out == ""

    def test_no_source_exits_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])
        assert exc.value.code == "nothing to generate: pass --family/--trees/--classes/--corpus"
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("verb,tag", [("gamma-t", "GAMMA"), ("bondage", "BONDAGE")])
    def test_k1_gets_error_record(self, capsys, graph_file, verb, tag):
        k1 = Graph(1, (0,))
        assert main([verb, graph_file(k1, cycle(4))]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"{tag} graph=@ n=1 m=0 error=isolated-vertex"
        # the run goes on to the next graph
        assert out[1].startswith(f"{tag} graph={g6(cycle(4))} ")
        assert len(out) == 2

    @pytest.mark.parametrize("verb,tag", [("gamma-t", "GAMMA"), ("bondage", "BONDAGE")])
    def test_k2_plus_k1_gets_error_record(self, capsys, graph_file, verb, tag):
        k2_k1 = Graph.from_edges(3, [(0, 1)])
        assert main([verb, graph_file(k2_k1)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"{tag} graph={g6(k2_k1)} n=3 m=1 error=isolated-vertex"]

    @pytest.mark.parametrize("verb", ["gamma-t", "bondage", "bounds", "detect", "discharge"])
    @pytest.mark.parametrize("data", [b"", b"\n \n"], ids=["empty", "blank"])
    def test_empty_stdin_prints_nothing(self, capsys, monkeypatch, verb, data):
        import io

        # what `gen ... | grep ... | totbond <verb> -` reads when grep matches nothing
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main([verb, "-"]) == 0
        assert capsys.readouterr().out == ""

    def test_bounds_isolated_vertex(self, capsys, graph_file):
        k1, empty3 = Graph(1, (0,)), Graph(3, (0, 0, 0))
        assert main(["bounds", graph_file(k1, path(7), empty3)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "BOUNDS graph=@ n=1 m=0 error=isolated-vertex"
        assert "tree-sridharan=holds" in out[1]
        assert out[2] == f"BOUNDS graph={g6(empty3)} n=3 m=0 error=isolated-vertex"


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

    def test_multipartite_without_parts_exits_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--rule", "multipartite"])
        assert exc.value.code == "multipartite rule needs --parts like 3,2,2"
        assert capsys.readouterr().out == ""

    def test_wrong_anchor_count_is_clean_error(self, graph_file):
        f = graph_file(cycle(4))
        with pytest.raises(SystemExit, match="takes 4 anchors, got 2"):
            main(["witness", f, "--rule", "cycle4", "--anchors", "0,1"])

    @pytest.mark.parametrize("flags,message", [
        (["--scan", "--rules", "triangle,bogus"], "unknown witness rule 'bogus'"),
        (["--rule", "cycle4", "--anchors", "0,x"], "--anchors takes comma-separated integers, got '0,x'"),
        (["--rule", "cycle4", "--anchors", "0,1"], "rule 'cycle4' takes 4 anchors, got 2"),
        (["--rule", "multipartite", "--parts", "3,x"], "--parts takes comma-separated integers, got '3,x'"),
        (["--rule", "multipartite", "--parts", "3,0"], "--parts '3,0': need at least two parts of positive size"),
        (["--rule", "cycle4", "--anchors", "0,1,1,2"], "anchor vertices must be distinct"),
        (["--scan", "--rules", "triangle,triangle"], "--rules names 'triangle' twice"),
        (["--scan", "--rules", ""], "unknown witness rule ''"),
    ])
    def test_bad_flags_rejected_before_any_input(self, capsys, graph_file, flags, message):
        from totbond.families import complete

        for src in (graph_file(complete(4), cycle(4)), "/tmp/totbond-no-such-file.g6"):
            with pytest.raises(SystemExit) as exc:
                main(["witness", src, *flags])
            assert exc.value.code == message
            assert capsys.readouterr().out == ""

    def test_anchor_out_of_range_gets_error_record(self, capsys, graph_file):
        f = graph_file(cycle(4), path(3), cycle(4))
        assert main(["witness", f, "--rule", "cycle4", "--anchors", "0,1,2,3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[0] == out[2] and "verdict=valid-bondage-set" in out[0]
        assert out[1] == f"WITNESS rule=cycle4 graph={g6(path(3))} n=3 m=2 error=vertex-3-out-of-range"

    def test_missing_input_file_is_clean_error(self):
        with pytest.raises(SystemExit, match="no such input file"):
            main(["gamma-t", "/tmp/totbond-no-such-file.g6"])

    @pytest.mark.parametrize("argv", [["bondage", "{}"], ["campaign", "--theorem", "thm-paths", "--corpus", "{}"]])
    def test_directory_input_is_clean_error(self, capsys, tmp_path, argv):
        d = tmp_path / "dir.g6"
        d.mkdir()
        with pytest.raises(SystemExit) as exc:
            main([a.format(d) for a in argv])
        assert exc.value.code == f"cannot read input {str(d)!r}: Is a directory"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [[], ["--rule", "cycle4"], ["--anchors", "0,1,2,3"]])
    def test_no_mode_rejected_before_reading_input(self, capsys, monkeypatch, flags):
        def no_read(path):
            raise AssertionError(f"read {path!r}")

        monkeypatch.setattr("totbond.cli._load_inputs", no_read)
        with pytest.raises(SystemExit) as exc:
            main(["witness", "/tmp/totbond-no-such-file.g6", *flags])
        assert exc.value.code == "pass --scan, or --rule with --anchors"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [
        ["--rule", "cycle4"],
        ["--anchors", "0,1,2,3"],
        ["--rule", "cycle4", "--anchors", "0,1,2,3"],
        ["--rule", "multipartite", "--parts", "2,2"],
    ])
    def test_scan_with_rule_or_anchors_exits_with_one_line(self, capsys, graph_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["witness", graph_file(cycle(4)), "--scan", *flags])
        assert exc.value.code == "--scan applies every rule: pass no --rule or --anchors with it"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("with_input,flags,message", [
        (
            True,
            ["--rules", "triangle", "--rule", "cycle4", "--anchors", "0,1,2,3"],
            "--rules picks the rules of --scan: pass it only with --scan",
        ),
        (
            True,
            ["--rule", "cycle4", "--anchors", "0,1,2,3", "--parts", "2,2"],
            "--parts applies only to --rule multipartite",
        ),
        (
            False,
            ["--rule", "multipartite", "--parts", "2,2", "--anchors", "0,1"],
            "--rule multipartite takes --parts, not --anchors or an input file",
        ),
        (
            True,
            ["--rule", "multipartite", "--parts", "2,2"],
            "--rule multipartite takes --parts, not --anchors or an input file",
        ),
        (
            True,
            ["--scan", "--rules", "multipartite"],
            "--scan has no anchors for multipartite: pass --rule multipartite --parts instead",
        ),
        (
            True,
            ["--scan", "--rules", "cycle4,multipartite"],
            "--scan has no anchors for multipartite: pass --rule multipartite --parts instead",
        ),
    ])
    def test_flags_the_mode_would_ignore_exit_with_one_line(self, capsys, monkeypatch, with_input, flags, message):
        def no_read(path):
            raise AssertionError(f"read {path!r}")

        monkeypatch.setattr("totbond.cli._load_inputs", no_read)
        with pytest.raises(SystemExit) as exc:
            main(["witness", *(["/tmp/totbond-no-such-file.g6"] if with_input else []), *flags])
        assert exc.value.code == message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [["--scan"], ["--rule", "cycle4", "--anchors", "0,1,2,3"]])
    def test_input_without_graphs_prints_nothing(self, capsys, tmp_path, flags):
        empty = tmp_path / "empty.g6"
        empty.write_bytes(b"")
        assert main(["witness", str(empty), *flags]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["bondage"], ["witness", "--rule", "cycle4", "--anchors", "0,1,2,3"]])
    def test_edge_list_of_comments_prints_nothing(self, capsys, tmp_path, argv):
        comments = tmp_path / "none.el"
        comments.write_bytes(b"# none\n")
        assert main([argv[0], str(comments), *argv[1:]]) == 0
        assert capsys.readouterr().out == ""

    def test_no_input_argument(self):
        with pytest.raises(SystemExit, match="witness needs an input file"):
            main(["witness", "--scan"])


class TestMalformedInput:
    """A malformed input file ends any verb with one line naming the file."""

    READERS = [
        ["gamma-t", "{}"],
        ["bondage", "{}"],
        ["bounds", "{}"],
        ["witness", "{}", "--scan"],
        ["detect", "{}"],
        ["detect", "{}", "--rules", "g4"],
        ["discharge", "{}"],
        ["campaign", "--theorem", "thm-paths", "--corpus", "{}"],
        ["search", "--bt", "1", "--corpus", "{}"],
        ["gen", "--corpus", "{}"],
    ]

    def run(self, argv, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.format(path) for a in argv])
        assert capsys.readouterr().out == ""
        return exc.value.code

    @pytest.mark.parametrize("argv", READERS)
    def test_graph6_names_file_and_line(self, tmp_path, capsys, argv):
        f = tmp_path / "bad.g6"
        f.write_bytes(b"C~\n\nBF\nC~\n")  # line 3 sets a padding bit
        assert self.run(argv, f, capsys) == (
            f"malformed input {str(f)!r}, line 3: "
            "nonzero padding bits in graph6 record (byte offset 1)"
        )

    @pytest.mark.parametrize("argv", READERS)
    def test_planar_code_without_header(self, tmp_path, capsys, argv):
        f = tmp_path / "bad.pc"
        f.write_bytes(b"\x02\x02\x00\x01\x00")
        assert self.run(argv, f, capsys) == (
            f"malformed input {str(f)!r}: missing >>planar_code<< header (byte offset 0)"
        )

    def test_edge_list(self, tmp_path, capsys):
        f = tmp_path / "bad.el"
        f.write_bytes(b"0 1\n1 x\n")
        assert self.run(["gamma-t", "{}"], f, capsys) == (
            f"malformed input {str(f)!r}: non-integer vertex in '1 x' (byte offset 4)"
        )

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"C~\nBF\n")))
        assert self.run(["gamma-t", "-"], "-", capsys) == (
            "malformed input '-', line 2: nonzero padding bits in graph6 record (byte offset 1)"
        )


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


    def test_unknown_rule_rejected_before_any_record(self, capsys, graph_file):
        from totbond.corpus import cube

        f = graph_file(cube(), cube())
        with pytest.raises(SystemExit, match="unknown detect rule 'bogus'"):
            main(["detect", f, "--rules", "g4,bogus"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rules, message", [
        ("g4,g4", "--rules names 'g4' twice"),
        ("", "unknown detect rule ''"),
    ])
    def test_repeated_or_empty_rule_rejected_before_any_record(self, capsys, graph_file, rules, message):
        from totbond.corpus import cube

        with pytest.raises(SystemExit) as exc:
            main(["detect", graph_file(cube()), "--rules", rules])
        assert exc.value.code == message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("reading", ["exact", "at-most"])
    def test_reading_without_borodin_exits_with_one_line(self, reading):
        # g4 reads degrees only, so it refuses --reading before any input is read
        with pytest.raises(SystemExit) as exc:
            main(["detect", "/tmp/totbond-no-such-file.g6", "--rules", "g4", "--reading", reading])
        assert exc.value.code == "--reading applies only to the borodin rule"

    def test_reading_defaults_to_at_most_with_borodin(self, capsys, graph_file):
        from totbond.corpus import icosahedron

        f = graph_file(icosahedron())
        assert main(["detect", f, "--rules", "g4,borodin"]) == 0
        default = capsys.readouterr().out
        assert main(["detect", f, "--rules", "g4,borodin", "--reading", "at-most"]) == 0
        assert capsys.readouterr().out == default

    def test_unknown_rule_rejected_before_reading_input(self):
        with pytest.raises(SystemExit, match="unknown detect rule 'bogus'"):
            main(["detect", "/tmp/totbond-no-such-file.g6", "--rules", "bogus"])

    def test_embeddings_only_for_borodin(self, capsys, graph_file, monkeypatch):
        import totbond.planar
        from totbond.corpus import cube, icosahedron

        calls = []
        real = totbond.planar.planar_embedding

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(totbond.planar, "planar_embedding", counted)
        f = graph_file(cube(), icosahedron())
        assert main(["detect", f, "--rules", "g4"]) == 0
        assert capsys.readouterr().out.count("DETECT rule=g4 ") == 2
        assert calls == []
        assert main(["detect", f, "--rules", "g4,borodin"]) == 0
        assert capsys.readouterr().out.count("DETECT rule=borodin ") == 2
        assert calls == [cube(), icosahedron()]


class TestDischarge:
    def test_rule_not_applicable(self, capsys, graph_file):
        from totbond.families import complete

        # K4 has minimum degree 3 but a triangle; C4 has girth 4 but degree 2
        assert main(["discharge", graph_file(complete(4), cycle(4))]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [ln.split(" ", 2)[2] for ln in out] == [
            "n=4 m=6 faces=4 total_initial=-8 rule=not-applicable",
            "n=4 m=4 faces=2 total_initial=-8 rule=not-applicable",
        ]

    def test_summary(self, capsys, graph_file):
        from totbond.corpus import cube

        assert main(["discharge", graph_file(cube())]) == 0
        out = capsys.readouterr().out
        assert "DISCHARGE" in out
        assert "total_initial=-8" in out

    def test_nonplanar_gets_error_record(self, capsys, graph_file):
        from totbond.families import complete

        k5 = graph_file(complete(5))
        assert main(["discharge", k5]) == 0
        assert main(["detect", k5, "--rules", "borodin"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"DISCHARGE graph={g6(complete(5))} error=not-planar",
            f"DETECT rule=borodin graph={g6(complete(5))} error=not-planar",
        ]

    def test_full_rows(self, capsys, graph_file):
        from totbond.corpus import cube

        assert main(["discharge", graph_file(cube()), "--full"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in out if ln.strip().startswith("vertex=")) == 8
        assert sum(1 for ln in out if ln.strip().startswith("face=")) == 6


class TestPlanarCodeInput:
    def test_rotation_kept_under_any_name_and_on_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        from oracles import planar_code_bytes
        from totbond.embedding import Embedding
        from totbond.planar import planar_embedding

        # the prism's mirrored rotation traces its faces in another order
        # than the left-right test's rotation, so a re-embedded input shows
        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        mirrored = Embedding.from_rotation([r[::-1] for r in planar_embedding(prism).rotation])
        data = planar_code_bytes([mirrored])
        for argv in (["detect"], ["discharge", "--full"]):
            outs = []
            for name in ("x.pc", "x.bin", "-"):
                if name == "-":
                    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
                else:
                    (tmp_path / name).write_bytes(data)
                    name = str(tmp_path / name)
                assert main([argv[0], name] + argv[1:]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] == outs[2], argv
        faces = [ln.split()[1] for ln in outs[0].splitlines() if ln.startswith("  face=")]
        assert faces == [f"length={len(f)}" for f in mirrored.faces]
        assert faces != [f"length={len(f)}" for f in planar_embedding(prism).faces]


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

    def test_k1_in_tree_corpus_is_skipped(self, capsys):
        rc = main(
            ["campaign", "--theorem", "thm-tree-sridharan", "--corpus", "trees:1..4", "--jobs", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            "RECORD theorem=thm-tree-sridharan graph=@ n=1 m=0 status=skipped "
            "reason=has-isolated-vertex"
        )
        assert out[-1].startswith("SUMMARY theorem=thm-tree-sridharan checked=5 ")

    def test_two_jobs_print_what_one_job_prints(self, capsys):
        argv = ["campaign", "--theorem", "thm-tree-sridharan", "--corpus", "trees:1..7", "--jobs"]
        assert main([*argv, "1"]) == 1
        serial = capsys.readouterr().out
        assert main([*argv, "2"]) == 1
        assert capsys.readouterr().out == serial
        assert len(serial.splitlines()) == 26

    def test_search(self, capsys):
        rc = main(["search", "--bt", "2", "--corpus", "cycles:4..7", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len([ln for ln in out if "status=match" in ln]) == 3  # C4, C5, C7

    def test_search_passes_over_isolated_vertices(self, capsys):
        # trees:1..5 adds K1, whose b_t is undefined: no match, no traceback
        runs = []
        for corpus in ("trees:1..5", "trees:2..5"):
            assert main(["search", "--bt", "1", "--corpus", corpus]) == 0
            runs.append(capsys.readouterr().out.splitlines())
        assert runs[0][:-1] == runs[1][:-1]
        assert len(runs[0]) > 1
        assert runs[0][-1] == "SUMMARY search=bt target=1 corpus=8 matches=3"


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bondage", "IN", "--work-budget", "-5"], "--work-budget"),
            (["bondage", "IN", "--cap", "-1"], "--cap"),
            (["bounds", "IN", "--work-budget", "-1"], "--work-budget"),
            (["campaign", "--theorem", "thm-planar-d8", "--corpus", "planar-min3",
              "--work-budget", "-1"], "--work-budget"),
            (["campaign", "--theorem", "thm-paths", "--corpus", "paths:4..8", "--jobs", "0"],
             "--jobs"),
            (["search", "--bt", "2", "--corpus", "cycles:4..7", "--jobs", "-2"], "--jobs"),
            (["search", "--bt", "-1", "--corpus", "paths:2..5"], "--bt"),
            (["gen", "--classes", "1", "--max-edges", "-1"], "--max-edges"),
            (["gen", "--classes", "3", "--max-edges", "-1"], "--max-edges"),
        ],
    )
    def test_negative_budget_cap_or_no_jobs_exits_with_one_line(
        self, capsys, graph_file, argv, flag
    ):
        argv = [graph_file(cycle(6)) if a == "IN" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith(f"{flag}: must be at least ")
        assert "\n" not in str(exc.value)
        assert capsys.readouterr().out == ""

    def test_zero_budget_and_cap_still_run(self, capsys, graph_file):
        f = graph_file(cycle(6))
        assert main(["bondage", f, "--work-budget", "0"]) == 0
        assert main(["bondage", f, "--cap", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [ln.split()[-1] for ln in out] == ["cap=0", "cap=0"]


def test_reader_leaving_early_ends_quietly():
    # 155 kB of graph6, more than a pipe holds, so the writer is still
    # writing when the reader closes its end after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "totbond.cli", "gen", "--trees", "15"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.readline().strip()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_import_leaves_the_process_pool_unloaded():
    # in a fresh interpreter, since this one may have run a campaign on two jobs
    code = "import sys, totbond.cli; sys.exit('concurrent.futures' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert run.returncode == 0


class TestCorpusResolution:
    def test_named(self):
        assert len(resolve_corpus("planar-min3")) >= 15
        assert len(resolve_corpus("girth4")) == 513

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

    def test_tree_range_checked_before_enumerating(self, monkeypatch):
        from totbond import cli

        calls = []
        real = cli.enumerate_trees
        monkeypatch.setattr(cli, "enumerate_trees", lambda n: calls.append(n) or real(n))
        with pytest.raises(SystemExit, match="in corpus spec 'trees:15..17'$"):
            resolve_corpus("trees:15..17")
        assert calls == []

    @pytest.mark.parametrize("spec", ["trees:0..3", "trees:17..18"])
    def test_tree_order_out_of_range(self, spec):
        with pytest.raises(SystemExit, match=f"in corpus spec '{spec}'$"):
            resolve_corpus(spec)


class TestRecordGrammar:
    """Every record of every verb: an upper-case kind, then key=value tokens."""

    @staticmethod
    def check(line):
        kind, *tokens = line.split(" ")
        assert re.fullmatch("[A-Z]+", kind), line
        keys = []
        for token in tokens:
            key, _, value = token.partition("=")  # a criterion holds a second "="
            assert key and value, line
            keys.append(key)
        assert len(keys) == len(set(keys)), line

    def test_every_verb(self, capsys, graph_file):
        from totbond.campaigns import THEOREM_TAGS
        from totbond.corpus import cube
        from totbond.families import complete, complete_multipartite, star

        f = graph_file(
            path(1), path(2), path(6), cycle(3), cycle(4), cycle(5), star(3), complete(4),
            complete_multipartite((3, 3)), complete_multipartite((2, 2, 2)), cube(),
        )
        argvs = [
            ["gamma-t", f],
            ["bondage", f],
            ["bondage", f, "--cap", "1"],
            ["bounds", f],
            ["bounds", f, "--work-budget", "3"],
            ["search", "--bt", "1", "--corpus", f],
            ["search", "--bt", "2", "--corpus", f],
            ["witness", f, "--scan"],
            ["witness", f, "--rule", "cycle4", "--anchors", "0,1,2,3"],
            ["witness", f, "--rule", "deg2-dist3", "--anchors", "0,5"],
            ["witness", "--rule", "multipartite", "--parts", "3,2,2"],
            ["detect", f, "--reading", "at-most"],
            ["detect", f, "--reading", "exact"],
            ["discharge", f],
            ["discharge", f, "--full"],
        ]
        argvs += [["campaign", "--theorem", tag, "--corpus", f, "--work-budget", "20000"]
                  for tag in THEOREM_TAGS]
        lines = []
        for argv in argvs:
            assert main(argv) in (0, 1)  # a campaign with a violation exits 1
            lines += [ln for ln in capsys.readouterr().out.splitlines()
                      if not ln.startswith("  ")]  # discharge --full's indented rows
        assert len(lines) > 300
        for line in lines:
            self.check(line)
        errors = {t for ln in lines for t in ln.split() if t.startswith("error=")}
        assert {"error=isolated-vertex", "error=not-planar", "error=vertex-3-out-of-range",
                "error=detector-requires-minimum-degree-3"} <= errors
        assert "criterion=2*max_matching-<=-gamma_t" in " ".join(lines).split()

    @pytest.mark.parametrize("line", [
        "bondage graph=Bw", "BONDAGE graph=", "BONDAGE =Bw", "BONDAGE graph",
        "BONDAGE graph=Bw graph=Bw", "BONDAGE graph=Bw  n=3",
    ])
    def test_check_rejects(self, line):
        with pytest.raises(AssertionError):
            self.check(line)
