"""Graph file input/output.

Supports the two formats GPM papers commonly ship graphs in:

* **edge list**: one ``u v`` pair per line, ``#`` comments allowed (SNAP
  convention).
* **Matrix Market** coordinate pattern files (``.mtx``), the format used by
  the SuiteSparse collection that hosts mico/patents-style graphs.

Both readers share one parser, :func:`_parse`, that works on the file's
bytes with numpy: token boundaries, line numbers and comment lines come
from array passes over a ``uint8`` view, and the vertex ids from one
``np.fromstring`` call, so ingest costs no Python work per line.  Only
ASCII whitespace (space, tab, ``\\v``, ``\\f``, CR, LF) separates tokens;
a line ends at LF, CRLF or a lone CR.  A vertex id is ``[+-]?[0-9]{1,10}``;
columns past the second are ignored unparsed.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = ["load_edge_list", "save_edge_list", "load_mtx", "load_graph"]

PathLike = Union[str, "os.PathLike[str]"]

#: Longest vertex-id token, in digits: every int32 id fits in 10, and
#: the bound keeps ``np.fromstring`` clear of int64 overflow.
_MAX_DIGITS = 10


def _parse(
    path: PathLike, data: bytes, comments: bytes, header: int = 0
) -> Tuple[Optional[Tuple[int, ...]], np.ndarray, bool]:
    """Parse ``u v ...`` lines into an ``(m, 2)`` int64 array.

    Blank lines and lines whose first token starts with a byte in
    ``comments`` are skipped.  With ``header > 0`` the first remaining
    line is a size line whose first ``header`` integers are returned
    apart.  Returns ``(head, pairs, commented)``: ``head`` is ``None``
    when there is no size line, ``commented`` tells whether any comment
    line was seen.  Errors name ``path:lineno``.
    """
    # Byte classes by comparison (uint8 wraps, so b - 9 < 5 is 9..13):
    # whitespace, padded on both sides, and line ends (LF, lone CR).
    buf = np.frombuffer(data, dtype=np.uint8)
    gap = np.ones(len(buf) + 2, dtype=bool)
    gap[1:-1] = (buf == 32) | (buf - np.uint8(9) < 5)
    eol = (buf == 10) | (buf == 13)
    eol[:-1] &= (buf[:-1] != 13) | (buf[1:] != 10)

    # Token starts and line ends in file order; a token right after a
    # line end (or at the top) opens a line.
    events = np.flatnonzero(eol | (gap[:-2] & ~gap[1:-1]))
    is_eol = eol[events]
    starts = events[~is_eol]
    ends = np.flatnonzero(~gap[1:-1] & gap[2:]) + 1
    opens = np.ones(len(events), dtype=bool)
    opens[1:] = is_eol[:-1]
    heads = np.flatnonzero(opens[~is_eol])
    widths = np.diff(heads, append=len(starts))
    lead = buf[starts[heads]]
    comment = np.zeros(len(heads), dtype=bool)
    for char in comments:
        comment |= lead == char
    heads, widths = heads[~comment], widths[~comment]

    def token(t: int) -> str:
        return data[starts[t]:ends[t]].decode(errors="backslashreplace")

    def error(t: int, message: str) -> GraphFormatError:
        event = np.flatnonzero(~is_eol)[t]
        lineno = np.count_nonzero(is_eol[:event]) + 1
        return GraphFormatError(f"{path}:{lineno}: {message}")

    head: Optional[Tuple[int, ...]] = None
    if header and len(heads):
        first, width = heads[0], widths[0]
        heads, widths = heads[1:], widths[1:]
        try:
            if width < header:
                raise ValueError
            head = tuple(int(token(t)) for t in range(first, first + header))
        except ValueError:
            raise error(first, "malformed size line") from None

    # Only the u and v tokens are read: comments, size lines and
    # columns past the second are blanked out, unchecked.
    short = widths < 2
    full = heads[~short]
    tokens = np.stack([full, full + 1], axis=1).ravel()
    dropped = np.ones(len(starts), dtype=bool)
    dropped[tokens] = False
    text = buf
    odd = ~gap[1:-1] & (buf - np.uint8(ord("0")) > 9)  # non-digit in a token
    if dropped.any():
        toggle = np.zeros(len(buf) + 1, dtype=bool)
        toggle[starts[dropped]] = True
        toggle[ends[dropped]] = True
        inside = np.logical_xor.accumulate(toggle[:-1])
        odd &= ~inside
        text = buf * ~inside
        np.maximum(text, np.uint8(ord(" ")), out=text)

    # A vertex id is an optional sign and 1..10 digits; report the
    # first short line or bad u / v token.
    lead = buf[starts]
    signed = (lead == ord("+")) | (lead == ord("-"))
    at = np.flatnonzero(odd)
    owner = np.searchsorted(starts, at, side="right") - 1
    odd_token = np.zeros(len(starts), dtype=bool)
    odd_token[owner[(at != starts[owner]) | ~signed[owner]]] = True
    digits = (ends - starts - signed)[tokens]
    malformed = odd_token[tokens] | (digits == 0)
    too_long = ~malformed & (digits > _MAX_DIGITS)
    problems: List[Tuple[int, str]] = []
    if short.any():
        t = heads[np.argmax(short)]
        problems.append((t, f"expected 'u v', got {token(t)!r}"))
    if malformed.any():
        t = tokens[np.argmax(malformed)]
        problems.append((t, "non-integer vertex id"))
    if too_long.any():
        t = tokens[np.argmax(too_long)]
        problems.append((t, f"vertex id {token(t)} does not fit int32"))
    if problems:
        raise error(*min(problems))

    commented = bool(comment.any())
    if not len(tokens):  # np.fromstring reads all-blank text as [0]
        return head, np.empty((0, 2), dtype=np.int64), commented
    values = np.fromstring(text.tobytes(), dtype=np.int64, sep=" ")
    return head, values.reshape(-1, 2), commented


def _read(path: PathLike) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def load_edge_list(path: PathLike, *, name: str = "") -> CSRGraph:
    """Load a whitespace-separated edge list with optional ``#`` or ``%``
    comment lines; columns past the second are ignored."""
    _, pairs, _ = _parse(path, _read(path), b"#%")
    return CSRGraph.from_edges(
        pairs, name=name or os.path.basename(str(path))
    )


def save_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph as a sorted edge list (one direction per edge)."""
    with open(path, "w") as f:
        f.write(f"# {graph.num_vertices} vertices, {graph.num_edges} edges\n")
        for u, v in graph.edges():
            f.write(f"{u} {v}\n")


def load_mtx(path: PathLike, *, name: str = "") -> CSRGraph:
    """Load a Matrix Market coordinate file as an undirected graph.

    Vertex ids in ``.mtx`` are 1-based; they are shifted to 0-based.
    Only the (row, col) structure is used; any values are ignored.  The
    number of entries must match the size line's declared count.
    """
    head, pairs, commented = _parse(path, _read(path), b"%", header=3)
    if head is None and not commented:
        raise GraphFormatError(f"{path}: not a Matrix Market file")
    rows, cols, entries = head or (0, 0, 0)
    if len(pairs) != entries:
        raise GraphFormatError(
            f"{path}: size line declares {entries} entries, found "
            f"{len(pairs)}"
        )
    return CSRGraph.from_edges(
        pairs - 1,
        num_vertices=max(rows, cols),
        name=name or os.path.basename(str(path)),
    )


def load_graph(path: PathLike, *, name: str = "") -> CSRGraph:
    """Dispatch on file extension (.mtx -> Matrix Market, else edge list)."""
    if str(path).endswith(".mtx"):
        return load_mtx(path, name=name)
    return load_edge_list(path, name=name)
