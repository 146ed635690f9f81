"""Graph file formats: graph6, plain edge lists, and planar_code.

graph6 packs the upper triangle of the adjacency matrix in column order
(bit (u, v) for v = 1..n-1, u = 0..v-1) into 6-bit chunks offset by 63.
Edge lists are text lines "u v" with 0-based vertex ids.  planar_code is
the binary embedding format: a ">>planar_code<<" header, then per graph a
vertex count followed by each vertex's clockwise neighbor list, 1-based and
0-terminated.  Parse failures report the byte offset where they happened.
"""
from __future__ import annotations

import io
import os

from .embedding import Embedding, EmbeddingError
from .graphs import Graph

GRAPH6_HEADER = b">>graph6<<"
PLANAR_CODE_HEADER = b">>planar_code<<"


class FormatError(ValueError):
    """A malformed graph stream.  ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


# -- graph6 -------------------------------------------------------------------


def _g6_size_bytes(n: int) -> bytes:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError("vertex count too large for graph6")


def graph6_bytes(g: Graph) -> bytes:
    """Encode a graph as one graph6 record (no header, no newline)."""
    n = g.n
    out = bytearray(_g6_size_bytes(n))
    bits = []
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            bits.append(col >> u & 1)
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(val + 63)
    return bytes(out)


def parse_graph6(record: bytes | str) -> Graph:
    """Decode one graph6 record (optionally prefixed by the format header)."""
    if isinstance(record, str):
        record = record.encode("ascii", errors="replace")
    data = record.strip()
    base = 0
    if data.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    if not data:
        raise FormatError("empty graph6 record", base)
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise FormatError(f"byte {b} outside graph6 range", base + i)
    if data[0] != 126:
        n = data[0] - 63
        body = data[1:]
        body_off = base + 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise FormatError("truncated graph6 size field", base + len(data))
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
        body_off = base + 4
    else:
        if len(data) < 8:
            raise FormatError("truncated graph6 size field", base + len(data))
        n = 0
        for b in data[2:8]:
            n = n << 6 | (b - 63)
        body = data[8:]
        body_off = base + 8
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise FormatError(
            f"graph6 record too short: need {nbytes} data bytes, got {len(body)}",
            body_off + len(body),
        )
    if len(body) > nbytes:
        raise FormatError("trailing bytes after graph6 record", body_off + nbytes)
    masks = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            b = body[idx // 6]
            if (b - 63) >> (5 - idx % 6) & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(masks))


def iter_graph6(stream) -> "iter[Graph]":
    """Yield graphs from a graph6 stream, one record per line."""
    for raw in stream:
        if isinstance(raw, str):
            raw = raw.encode("ascii", errors="replace")
        line = raw.strip()
        if not line:
            continue
        yield parse_graph6(line)


def write_graph6(graphs, stream) -> int:
    """Write graphs as graph6 lines.  Returns the number written."""
    count = 0
    for g in graphs:
        stream.write(graph6_bytes(g) + b"\n")
        count += 1
    return count


# -- edge lists ----------------------------------------------------------------


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse "u v" lines (0-based).  Blank lines and #-comments are skipped."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    edges = []
    top = -1
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            parts = stripped.split()
            if len(parts) != 2:
                raise FormatError(f"expected 'u v', got {stripped!r}", offset)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"non-integer vertex in {stripped!r}", offset) from None
            if u < 0 or v < 0 or u == v:
                raise FormatError(f"bad edge {u} {v}", offset)
            edges.append((u, v))
            top = max(top, u, v)
        offset += len(line.encode("ascii", errors="replace"))
    return Graph.from_edges(top + 1, edges)


def edge_list_text(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())


# -- planar_code ----------------------------------------------------------------


def iter_planar_code(stream) -> "iter[Embedding]":
    """Yield embeddings from a planar_code byte stream.

    Only the unsigned-byte variant (n <= 255) is supported, which is the
    format's default.  Every record must be a connected genus-0 embedding;
    anything else is reported as a format error.
    """
    data = stream.read()
    if isinstance(data, str):
        data = data.encode("latin1")
    if not data.startswith(PLANAR_CODE_HEADER):
        raise FormatError("missing >>planar_code<< header", 0)
    pos = len(PLANAR_CODE_HEADER)
    total = len(data)
    while pos < total:
        n = data[pos]
        start = pos
        pos += 1
        if n == 0:
            raise FormatError("planar_code record with zero vertices", start)
        rotation = []
        for v in range(n):
            order = []
            while True:
                if pos >= total:
                    raise FormatError("truncated planar_code record", total)
                b = data[pos]
                pos += 1
                if b == 0:
                    break
                if b > n:
                    raise FormatError(f"neighbor {b} exceeds n={n}", pos - 1)
                order.append(b - 1)
            rotation.append(tuple(order))
        try:
            emb = Embedding.from_rotation(rotation)
        except EmbeddingError as exc:
            raise FormatError(f"inconsistent rotation system: {exc}", start) from None
        if not emb.graph.is_connected():
            raise FormatError("planar_code record is disconnected", start)
        if emb.euler_characteristic() != 2:
            raise FormatError(
                f"rotation system has Euler characteristic {emb.euler_characteristic()}, not 2",
                start,
            )
        yield emb


def planar_code_bytes(embeddings) -> bytes:
    """Encode embeddings as a planar_code stream (header included)."""
    out = bytearray(PLANAR_CODE_HEADER)
    for emb in embeddings:
        n = emb.graph.n
        if not 1 <= n <= 255:
            raise ValueError("planar_code byte variant needs 1 <= n <= 255")
        out.append(n)
        for order in emb.rotation:
            out.extend(u + 1 for u in order)
            out.append(0)
    return bytes(out)


# -- format dispatch -------------------------------------------------------------

_EXTENSIONS = {
    ".g6": "graph6",
    ".graph6": "graph6",
    ".el": "edge-list",
    ".edges": "edge-list",
    ".pc": "planar_code",
    ".plc": "planar_code",
}


def sniff_format(data: bytes, path: str | None = None) -> str:
    """Guess the format of raw bytes, using the extension as a hint."""
    if data.startswith(PLANAR_CODE_HEADER):
        return "planar_code"
    if data.startswith(GRAPH6_HEADER):
        return "graph6"
    if path is not None:
        ext = os.path.splitext(path)[1].lower()
        if ext in _EXTENSIONS:
            return _EXTENSIONS[ext]
    head = data.lstrip()[:200].split(b"\n", 1)[0].strip()
    if head and all(63 <= b <= 126 for b in head):
        return "graph6"
    return "edge-list"


def read_graphs(path: str, fmt: str | None = None) -> list[Graph]:
    """Read every graph in a file, sniffing the format unless given."""
    with open(path, "rb") as fh:
        return parse_graphs(fh.read(), fmt, path)


def parse_graphs(data: bytes, fmt: str | None = None, path: str | None = None) -> list[Graph]:
    """Parse every graph in raw bytes, sniffing the format unless given.

    `path`, when known, only lends its extension to the sniffing.
    """
    if fmt is None:
        fmt = sniff_format(data, path)
    if fmt == "graph6":
        return list(iter_graph6(io.BytesIO(data)))
    if fmt == "edge-list":
        return [parse_edge_list(data)]
    if fmt == "planar_code":
        return [emb.graph for emb in iter_planar_code(io.BytesIO(data))]
    raise ValueError(f"unknown format {fmt!r}")


def read_graph(path: str, fmt: str | None = None) -> Graph:
    """Read the first graph in a file."""
    graphs = read_graphs(path, fmt)
    if not graphs:
        raise FormatError("no graphs in file", 0)
    return graphs[0]


def read_embeddings(path: str) -> list[Embedding]:
    """Read a planar_code file as embeddings."""
    with open(path, "rb") as fh:
        return list(iter_planar_code(fh))
