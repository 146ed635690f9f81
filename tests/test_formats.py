"""Serialization round trips against the networkx codec and hand values."""

import io
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bitwise_graph6_bytes,
    bitwise_parse_graph6,
    edge_list_text,
    face_lengths,
    planar_code_bytes,
    write_graph6,
)
from totbond.corpus import girth4_corpus
from totbond.embedding import Embedding
from totbond.families import complete, complete_bipartite, cycle, path
from totbond.formats import (
    GRAPH6_HEADER,
    PLANAR_CODE_HEADER,
    FormatError,
    _g6_size_bytes,
    edges_text,
    graph6_bytes,
    iter_graph6,
    iter_planar_code,
    parse_edge_list,
    parse_graph6,
    parse_graphs,
    read_graphs,
    record_line,
    sniff_format,
)
from totbond.graphs import Graph


def graphs_up_to(max_n):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
        return Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])

    return build()


class TestGraph6:
    def test_known_encoding(self):
        # complete graph on 4 vertices is the canonical single-byte case
        assert graph6_bytes(complete(4)) == b"C~"
        assert parse_graph6(b"C~").edges() == complete(4).edges()

    @settings(max_examples=200, deadline=None)
    @given(graphs_up_to(9))
    def test_round_trip(self, g):
        assert parse_graph6(graph6_bytes(g)) == g

    @settings(max_examples=150, deadline=None)
    @given(graphs_up_to(9))
    def test_matches_networkx_encoder(self, g):
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        want = nx.to_graph6_bytes(ref, header=False).strip()
        assert graph6_bytes(g) == want

    @settings(max_examples=150, deadline=None)
    @given(graphs_up_to(9))
    def test_parses_networkx_output(self, g):
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        data = nx.to_graph6_bytes(ref, header=True).strip()
        assert parse_graph6(data) == g

    def test_large_order_header(self):
        g = path(100)
        blob = graph6_bytes(g)
        assert blob[0] == 126  # four-byte size marker
        assert parse_graph6(blob) == g

    def test_size_field_bytes(self):
        # each form at both ends of its range, checked apart from the oracle
        # codec, which writes its size field with this same function
        for n, want in (
            (0, b"?"),
            (62, b"}"),
            (63, b"~??~"),
            (258047, b"~}~~"),
            (258048, b"~~???~??"),
            (2**36 - 1, b"~~~~~~~~"),
        ):
            assert _g6_size_bytes(n) == want, n
        for n in (-1, 2**36):
            with pytest.raises(ValueError):
                _g6_size_bytes(n)

    def test_bad_byte_reports_offset(self):
        with pytest.raises(FormatError) as err:
            parse_graph6(b"C\x1f~")
        assert err.value.offset == 1

    def test_truncated_record(self):
        with pytest.raises(FormatError):
            parse_graph6(b"E")  # promises 6 vertices, no matrix bytes

    def test_header_alone_is_an_empty_record(self):
        with pytest.raises(FormatError) as err:
            parse_graph6(b">>graph6<<")
        assert str(err.value) == "empty graph6 record (byte offset 10)"

    def test_trailing_garbage(self):
        with pytest.raises(FormatError):
            parse_graph6(b"C~~~")

    def test_padding_bits_must_be_zero(self):
        # n = 3 has 3 matrix bits, so the low 3 bits of the body byte pad
        assert parse_graph6(b"B?") == Graph(3, (0, 0, 0))
        assert parse_graph6(b"Bw") == complete(3)
        with pytest.raises(FormatError, match="nonzero padding bits") as err:
            parse_graph6(b"BF")
        assert err.value.offset == 1
        # 63 vertices: a four-byte size field and 1953 matrix bits, 3 of padding
        blob = graph6_bytes(path(63))
        with pytest.raises(FormatError) as err:
            parse_graph6(GRAPH6_HEADER + blob[:-1] + bytes([blob[-1] + 1]))
        assert err.value.offset == len(GRAPH6_HEADER) + len(blob) - 1

    def test_offsets_match_bitwise_codec(self):
        cases = [
            b"C\x1f~",  # bad byte in a one-byte size field record
            b">>graph6<<C~\x80",  # bad byte after a header
            b"E",  # promises 6 vertices, no matrix bytes
            b"C~~~",  # trailing bytes
            b"~??",  # truncated four-byte size field
            b"~~???",  # truncated eight-byte size field
            # truncated size fields, at offsets 1, 2, 2 and 7
            b"~",
            b"~~",
            b"~?",
            b"~~?????",
        ]
        clean = graph6_bytes(path(100))
        assert clean[0] == 126 and len(clean) == 829
        bad = clean[:700] + b"\x7f" + clean[701:]  # deep in a four-byte size field record
        cases += [bad, clean[:-40], clean + b"??"]
        for data in cases:
            with pytest.raises(FormatError) as got:
                parse_graph6(data)
            with pytest.raises(FormatError) as want:
                bitwise_parse_graph6(data)
            assert (got.value.offset, str(got.value)) == (want.value.offset, str(want.value))
        with pytest.raises(FormatError) as err:
            parse_graph6(bad)
        assert err.value.offset == 700
        # n = 1 in the four-byte form is not canonical, yet both codecs read it
        assert parse_graph6(b"~??@") == bitwise_parse_graph6(b"~??@") == Graph(1, (0,))

    def test_stream_error_names_the_line(self):
        # offsets count from the start of the bad record, so the stream
        # names its line; blank lines count
        with pytest.raises(FormatError, match=r"nonzero padding bits .*\(byte offset 1\)$") as err:
            parse_graphs(b"C~\n\nBF\nC~\n")
        assert (err.value.line, err.value.offset) == (3, 1)
        with pytest.raises(FormatError) as err:
            parse_graph6(b"BF")
        assert err.value.line is None

    def test_non_ascii_text_record_rejected(self):
        # "é" must not decode as "?", the graph6 value 0
        for record, offset in (("Cé", 1), (" Cé", 1), (">>graph6<<C~é", 12), ("é", 0)):
            with pytest.raises(FormatError, match="outside graph6 range") as err:
                parse_graph6(record)
            assert err.value.offset == offset, record

    def test_non_ascii_text_stream_rejected(self):
        with pytest.raises(FormatError, match="outside graph6 range") as err:
            list(iter_graph6(io.StringIO("C~\n\nCé\n")))
        assert (err.value.line, err.value.offset) == (3, 1)
        assert list(iter_graph6(io.StringIO("C~\n\n Bw \n"))) == [complete(4), complete(3)]
        # text lines strip as their bytes do: "\x1c" is not blank space
        for stream in (io.StringIO("C~\x1c\n"), io.BytesIO(b"C~\x1c\n")):
            with pytest.raises(FormatError, match="byte 28 outside graph6 range"):
                list(iter_graph6(stream))

    def test_stream_round_trip(self):
        graphs = [path(4), cycle(5), complete(3)]
        buf = io.BytesIO()
        write_graph6(graphs, buf)
        buf.seek(0)
        assert list(iter_graph6(buf)) == graphs


def _random_graph(n, p, rng):
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


class TestAgainstBitwiseCodec:
    """The packed codec gives the bytes and graphs of the bit-at-a-time one."""

    def check(self, g):
        blob = bitwise_graph6_bytes(g)
        assert graph6_bytes(g) == blob
        assert parse_graph6(blob) == bitwise_parse_graph6(blob) == g

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
    def test_every_order_to_130(self, p):
        rng = random.Random(int(p * 100))
        for n in range(131):
            self.check(_random_graph(n, p, rng))

    def test_size_field_boundary(self):
        rng = random.Random(62)
        for n in (62, 63):
            for p in (0.0, 0.3, 0.7, 1.0):
                g = _random_graph(n, p, rng)
                self.check(g)
                assert (graph6_bytes(g)[0] == 126) == (n == 63)

    def test_girth4_corpus(self):
        for g in girth4_corpus():
            self.check(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs_up_to(24))
    def test_round_trip(self, g):
        self.check(g)
        assert parse_graph6(GRAPH6_HEADER + graph6_bytes(g) + b"\n") == g


class TestEdgeList:
    def test_parse_basic(self):
        g = parse_edge_list("# demo\n0 1\n1 2\n")
        assert g.edges() == ((0, 1), (1, 2))

    def test_round_trip(self):
        g = cycle(5)
        assert parse_edge_list(edge_list_text(g)) == g

    def test_bad_token_offset(self):
        with pytest.raises(FormatError):
            parse_edge_list("0 1\n1 x\n")

    def test_three_tokens_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_edge_list("0 1\n0 1 2\n")
        assert str(err.value) == "expected 'u v', got '0 1 2' (byte offset 4)"

    def test_edges_text(self):
        assert edges_text({(2, 3), (0, 4)}) == "0-4,2-3"
        assert edges_text(()) == "-"

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("2 2\n")

    @staticmethod
    def rejected_alike(line):
        # text and its UTF-8 bytes fail at the line's offset with one message
        text = "0 1\n" + line + "\n"
        errors = []
        for data in (text, text.encode()):
            with pytest.raises(FormatError) as err:
                parse_edge_list(data)
            errors.append(err.value)
        assert errors[0].offset == errors[1].offset == 4
        assert str(errors[0]) == str(errors[1]) == f"non-integer vertex in {line!r} (byte offset 4)"
        assert "\ufffd" not in str(errors[1])

    def test_other_script_digits_rejected(self):
        self.rejected_alike("\u0661 \u0662")  # Arabic-Indic one and two

    def test_underscore_in_vertex_rejected(self):
        self.rejected_alike("1_0 2")

    def test_signed_vertex_rejected(self):
        self.rejected_alike("+1 2")

    def test_offsets_count_utf8_bytes(self):
        # a comment with a two-byte character moves the bad line by 2 bytes
        for data in ("# \u00e9\n1 x\n", "# \u00e9\n1 x\n".encode()):
            with pytest.raises(FormatError) as err:
                parse_edge_list(data)
            assert err.value.offset == 5


class TestPlanarCode:
    def cube_embedding(self):
        from totbond.corpus import cube
        from totbond.planar import planar_embedding

        return planar_embedding(cube())

    def test_round_trip(self):
        emb = self.cube_embedding()
        blob = planar_code_bytes([emb])
        got = list(iter_planar_code(io.BytesIO(blob)))
        assert len(got) == 1
        assert got[0].graph == emb.graph
        assert sorted(face_lengths(got[0])) == sorted(face_lengths(emb))

    def test_requires_header(self):
        with pytest.raises(FormatError):
            list(iter_planar_code(io.BytesIO(b"\x04...")))

    def test_euler_enforced(self):
        # K5 with each rotation in vertex order: connected, consistent, genus >= 1
        rotation = [tuple(u for u in range(5) if u != v) for v in range(5)]
        blob = planar_code_bytes([Embedding.from_rotation(rotation)])
        with pytest.raises(FormatError, match="Euler characteristic -?[0-9]+, not 2") as err:
            list(iter_planar_code(io.BytesIO(blob)))
        assert err.value.offset == len(PLANAR_CODE_HEADER)

    @pytest.mark.parametrize(
        "record, message, offset",
        [
            (b"\x00", "record with zero vertices", 0),
            (b"\x02\x02\x00\x01", "truncated planar_code record", 4),
            (b"\x02\x03\x00", "neighbor 3 exceeds n=2", 1),
            (b"\x02\x02\x02\x00\x01\x00", "inconsistent rotation system: repeated", 0),
            # two disjoint edges
            (b"\x04\x02\x00\x01\x00\x04\x00\x03\x00", "record is disconnected", 0),
        ],
    )
    def test_bad_record(self, record, message, offset):
        # a good record first: each error names its own record's offset
        good = planar_code_bytes([self.cube_embedding()])
        with pytest.raises(FormatError, match=message) as err:
            list(iter_planar_code(io.BytesIO(good + record)))
        assert err.value.offset == len(good) + offset


class TestDispatch:
    def test_sniff_by_extension(self, tmp_path):
        p = tmp_path / "x.g6"
        p.write_bytes(graph6_bytes(path(4)) + b"\n")
        assert sniff_format(p.read_bytes(), str(p)) == "graph6"
        assert list(read_graphs(str(p))) == [path(4)]

    def test_sniff_edge_list(self, tmp_path):
        p = tmp_path / "x.el"
        p.write_text("0 1\n1 2\n")
        assert list(read_graphs(str(p))) == [path(3)]

    def test_read_graphs_multiline(self, tmp_path):
        p = tmp_path / "batch.g6"
        buf = io.BytesIO()
        write_graph6([path(4), cycle(6)], buf)
        p.write_bytes(buf.getvalue())
        assert list(read_graphs(str(p))) == [path(4), cycle(6)]

    def test_parse_graphs_matches_read_graphs(self, tmp_path):
        p = tmp_path / "batch"
        buf = io.BytesIO()
        write_graph6([path(4), cycle(6)], buf)
        p.write_bytes(buf.getvalue())
        assert parse_graphs(buf.getvalue()) == read_graphs(str(p)) == [path(4), cycle(6)]
        assert parse_graphs(b"0 1\n1 2\n") == [path(3)]
        claw = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        assert parse_graphs(b"Bw\nCF\n") == [complete(3), claw]

    @pytest.mark.parametrize("data", [b"", b"\n", b" \n\t\r\n"])
    def test_empty_or_blank_data_holds_no_graphs(self, tmp_path, data):
        # not one edge list of zero vertices
        assert parse_graphs(data) == []
        p = tmp_path / "blank"
        p.write_bytes(data)
        assert read_graphs(str(p)) == []

    @pytest.mark.parametrize("data", [b"# none\n", b"# a\n\n  # b\n"])
    def test_edge_list_of_comments_holds_no_graphs(self, tmp_path, data):
        assert parse_graphs(data) == []
        p = tmp_path / "comments.el"
        p.write_bytes(data)
        assert read_graphs(str(p)) == []

    def test_planar_code_file(self, tmp_path):
        from totbond.corpus import cube
        from totbond.planar import planar_embedding

        emb = planar_embedding(cube())
        p = tmp_path / "x.pc"
        p.write_bytes(planar_code_bytes([emb]))
        # embeddings, rotations included, with the graphs as .graph
        got = read_graphs(str(p))
        assert got == [emb]
        assert got[0].graph == cube()


class TestRecordLine:
    def test_kind_then_fields(self):
        fields = [("graph", "Bw"), ("n", 3), ("b_t", float("inf"))]
        assert record_line("BONDAGE", fields) == "BONDAGE graph=Bw n=3 b_t=inf"
        assert record_line("SUMMARY", []) == "SUMMARY"

    def test_spaces_in_a_value_become_dashes(self):
        fields = [("criterion", "2*max_matching <= gamma_t"), ("error", ValueError("not planar"))]
        assert record_line("X", fields) == "X criterion=2*max_matching-<=-gamma_t error=not-planar"
