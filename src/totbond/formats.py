"""Graph file formats: graph6, plain edge lists, and planar_code.

graph6 packs the upper triangle of the adjacency matrix in column order
(bit (u, v) for v = 1..n-1, u = 0..v-1) into 6-bit chunks offset by 63.
The codec never steps through single bits.  The encoder ORs each column
of the triangle into one integer at offset v(v-1)/2, reverses that
integer's binary digits with one `format`, and lets base64 do the 6-bit
grouping, since its alphabet is the same 64 values in another order and
one translation table maps the one onto the other.  Decoding runs the
same steps backwards, reading each column as one binary string.  The
vertex count in front is a 1-, 4- or 8-byte size field, and one table,
`_SIZE_FORMS`, lists those three forms for both directions.  Edge lists
are text lines "u v" with 0-based vertex ids in ASCII decimal digits.
planar_code is the binary embedding format: a ">>planar_code<<" header,
then per graph a vertex count followed by each vertex's clockwise
neighbor list, 1-based and 0-terminated.  Parse failures report the byte
offset where they happened.
"""
from __future__ import annotations

import base64
import io
import os

from .embedding import Embedding, EmbeddingError
from .graphs import Graph

GRAPH6_HEADER = b">>graph6<<"
PLANAR_CODE_HEADER = b">>planar_code<<"

# graph6 bytes are the 6-bit values 0..63 offset by 63; base64 writes the
# same values as these 64 letters
G6_RANGE = bytes(range(63, 127))
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_B64 = bytes.maketrans(_B64_ALPHABET, G6_RANGE)
_TO_B64 = bytes.maketrans(G6_RANGE, _B64_ALPHABET)


class FormatError(ValueError):
    """A malformed graph stream.  ``offset`` is the failing byte position.

    A graph6 stream counts offsets from the start of the bad record and
    sets ``line`` to that record's 1-based line number.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
        self.line: int | None = None


# -- graph6 -------------------------------------------------------------------


# the size field's forms: largest n, prefix, digit shifts (most significant first)
_SIZE_FORMS = (
    (62, b"", (0,)),
    (258047, b"~", (12, 6, 0)),
    (68719476735, b"~~", (30, 24, 18, 12, 6, 0)),
)


def _g6_size_bytes(n: int) -> bytes:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    for top, prefix, shifts in _SIZE_FORMS:
        if n <= top:
            return prefix + bytes((n >> s & 63) + 63 for s in shifts)
    raise ValueError("vertex count too large for graph6")


def graph6_bytes(g: Graph) -> bytes:
    """Encode a graph as one graph6 record (no header, no newline)."""
    n = g.n
    adj = g.adj
    # column v holds the bits (u, v) for u = 0..v-1, at stream positions
    # v(v-1)/2 + u: bit p of x is bit p of the stream
    x = 0
    nbits = 0
    for v in range(1, n):
        x |= (adj[v] & ((1 << v) - 1)) << nbits
        nbits += v
    nchars = (nbits + 5) // 6
    # base64 packs the same 6-bit groups, 4 to every 3 bytes; the stream
    # starts at the most significant bit, so read x's digits reversed
    nbytes = (nchars + 3) // 4 * 3
    packed = int(format(x, f"0{nbits}b")[::-1], 2) << (8 * nbytes - nbits)
    body = base64.b64encode(packed.to_bytes(nbytes, "big"))[:nchars]
    return _g6_size_bytes(n) + body.translate(_FROM_B64)


def _ascii(record: bytes | str) -> bytes:
    """A graph6 record as bytes: text must be ASCII, since "?" is a value."""
    if isinstance(record, bytes):
        return record
    try:
        return record.encode("ascii")
    except UnicodeEncodeError as exc:
        # every character before the bad one is ASCII; count the offset
        # from the stripped record, as for bytes
        lead = record[: exc.start].encode("ascii").lstrip()
        raise FormatError(
            f"character {record[exc.start]!r} outside graph6 range", len(lead)
        ) from None


def parse_graph6(record: bytes | str) -> Graph:
    """Decode one graph6 record (optionally prefixed by the format header)."""
    data = _ascii(record).strip()
    base = 0
    if data.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        data = data[base:]
    if not data:
        raise FormatError("empty graph6 record", base)
    if data.translate(None, G6_RANGE):
        for i, b in enumerate(data):
            if not 63 <= b <= 126:
                raise FormatError(f"byte {b} outside graph6 range", base + i)
    # the form of the longest prefix the record starts with; "" always matches
    for _, prefix, shifts in reversed(_SIZE_FORMS):
        if data.startswith(prefix):
            break
    size_end = len(prefix) + len(shifts)
    if len(data) < size_end:
        raise FormatError("truncated graph6 size field", base + len(data))
    n = 0
    for b in data[len(prefix) : size_end]:
        n = n << 6 | (b - 63)
    body = data[size_end:]
    body_off = base + size_end
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise FormatError(
            f"graph6 record too short: need {nbytes} data bytes, got {len(body)}",
            body_off + len(body),
        )
    if len(body) > nbytes:
        raise FormatError("trailing bytes after graph6 record", body_off + nbytes)
    pad = -nbits % 6  # the specification fills the last 6-bit group with zeros
    if pad and (body[-1] - 63) & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in graph6 record", body_off + nbytes - 1)
    # "A" is base64 for six zero bits: pad to whole 4-character groups
    packed = base64.b64decode(body.translate(_TO_B64) + b"A" * (-nbytes % 4))
    bits = format(int.from_bytes(packed, "big"), f"0{8 * len(packed)}b")
    masks = [0] * n
    start = 0
    for v in range(1, n):
        col = int(bits[start : start + v][::-1], 2)
        start += v
        masks[v] = col
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << v
            col ^= low
    return Graph._trusted(n, tuple(masks))


def iter_graph6(stream) -> "iter[Graph]":
    """Yield graphs from a graph6 stream, one record per line."""
    for lineno, raw in enumerate(stream, 1):
        try:
            line = _ascii(raw).strip()  # text and bytes strip the same
            if not line:
                continue
            g = parse_graph6(line)
        except FormatError as exc:
            exc.line = lineno
            raise
        yield g


# -- edge lists ----------------------------------------------------------------


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse "u v" lines (0-based).  Blank lines and #-comments are skipped.

    Vertex ids are ASCII decimal digits only: no sign, no underscore, no
    other script's digits.  Bytes are decoded as UTF-8 and text is taken
    as it is, so both forms read alike and offsets count UTF-8 bytes; a
    byte that is not UTF-8 survives the decode and counts as one.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="surrogateescape")
    edges = []
    top = -1
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            parts = stripped.split()
            if len(parts) != 2:
                raise FormatError(f"expected 'u v', got {stripped!r}", offset)
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise FormatError(f"non-integer vertex in {stripped!r}", offset)
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise FormatError(f"bad edge {u} {v}", offset)
            edges.append((u, v))
            top = max(top, u, v)
        offset += len(line.encode("utf-8", errors="surrogateescape"))
    return Graph.from_edges(top + 1, edges)


def edges_text(edges) -> str:
    """An edge set as sorted "u-v" items joined by commas, "-" when empty."""
    return ",".join(f"{u}-{v}" for u, v in sorted(edges)) or "-"


def record_line(kind: str, fields) -> str:
    """One CLI record: the kind, then a `key=value` token per (key, value)
    pair, joined by spaces.  A value is written with str(), and any space
    in it becomes a dash, so each field stays one token."""
    return " ".join([kind, *(f"{k}=" + str(v).replace(" ", "-") for k, v in fields)])


# -- planar_code ----------------------------------------------------------------


def iter_planar_code(stream) -> "iter[Embedding]":
    """Yield embeddings from a planar_code byte stream.

    Only the unsigned-byte variant (n <= 255) is supported, which is the
    format's default.  Every record must be a connected genus-0 embedding;
    anything else is reported as a format error.
    """
    data = stream.read()
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


def read_graphs(path: str) -> list[Graph] | list[Embedding]:
    """Read every graph in a file; see `parse_graphs`."""
    with open(path, "rb") as fh:
        return parse_graphs(fh.read(), path)


def parse_graphs(data: bytes, path: str | None = None) -> list[Graph] | list[Embedding]:
    """Parse every graph in raw bytes, sniffing the format.

    A planar_code stream gives its embeddings, each with its graph as
    `.graph`, so the rotations it stores are kept; every other format
    gives graphs.  `path`, when known, only lends its extension to the
    sniffing.  Empty or blank data holds no graphs, and neither does an
    edge list with no edge lines.
    """
    if not data or data.isspace():
        return []
    fmt = sniff_format(data, path)
    if fmt == "graph6":
        return list(iter_graph6(io.BytesIO(data)))
    if fmt == "edge-list":
        g = parse_edge_list(data)
        return [g] if g.n else []
    return list(iter_planar_code(io.BytesIO(data)))
