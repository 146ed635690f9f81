"""Serialization round trips against the networkx codec and hand values."""

import io

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totbond.embedding import Embedding
from totbond.families import complete, complete_bipartite, cycle, path
from totbond.formats import (
    FormatError,
    edge_list_text,
    graph6_bytes,
    iter_graph6,
    iter_planar_code,
    parse_edge_list,
    parse_graph6,
    planar_code_bytes,
    read_embeddings,
    parse_graphs,
    read_graphs,
    sniff_format,
    write_graph6,
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

    def test_bad_byte_reports_offset(self):
        with pytest.raises(FormatError) as err:
            parse_graph6(b"C\x1f~")
        assert err.value.offset == 1

    def test_truncated_record(self):
        with pytest.raises(FormatError):
            parse_graph6(b"E")  # promises 6 vertices, no matrix bytes

    def test_trailing_garbage(self):
        with pytest.raises(FormatError):
            parse_graph6(b"C~~~")

    def test_stream_round_trip(self):
        graphs = [path(4), cycle(5), complete(3)]
        buf = io.BytesIO()
        write_graph6(graphs, buf)
        buf.seek(0)
        assert list(iter_graph6(buf)) == graphs


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

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("2 2\n")


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
        assert sorted(got[0].face_lengths()) == sorted(emb.face_lengths())

    def test_requires_header(self):
        with pytest.raises(FormatError):
            list(iter_planar_code(io.BytesIO(b"\x04...")))

    def test_euler_enforced(self):
        emb = self.cube_embedding()
        blob = planar_code_bytes([emb])
        # corrupt one neighbor entry to break the rotation system
        mutated = bytearray(blob)
        mutated[-2] = mutated[-3]  # duplicate a neighbor id
        with pytest.raises(FormatError):
            list(iter_planar_code(io.BytesIO(bytes(mutated))))


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

    def test_planar_code_file(self, tmp_path):
        from totbond.corpus import cube
        from totbond.planar import planar_embedding

        emb = planar_embedding(cube())
        p = tmp_path / "x.pc"
        p.write_bytes(planar_code_bytes([emb]))
        got = list(read_embeddings(str(p)))
        assert got[0].graph == cube()
        graphs = list(read_graphs(str(p)))
        assert graphs == [cube()]
