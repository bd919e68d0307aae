"""Whitespace-delimited text formats for every input kind.

All formats share the conventions: blank lines and full-line ``#``
comments are ignored (a ``#`` after content on the same line is not a
comment and makes the line malformed), matrix indices are 0-based, vertex
indices are 1-based, and matrices are given by upper-triangle entries
that are mirrored on parse.  Malformed text raises ``ParseError`` naming
the first offending line.  The ``emit_*`` functions produce the
canonical form (sorted nonzero entries, shortest round-trip float repr),
so parsing an emitted file reproduces the object bit for bit.

matrices     n m | repeated blocks:  mat <k>  then  i j value
graph        n   | lines:  u v weight
hypergraph   n   | lines:  k v1 ... vk weight
costs        k m | k lines of m values (edge order of the graph file)
family       f   | per member:  e  then e lines of  u v
sdp          sdp n m | m mat blocks | target block | cost ... | feasible ...
simplex      simplex n m | lambda ... | m mat blocks

The header of the matrices, sdp and simplex formats announces one
``(count, n, n)`` stack, allocated once.  Each entry block is read where
the parser meets it: its lines are sliced out of the text and read with
one ``numpy.loadtxt`` call, then checked for range, finiteness and
duplicates and written into its matrix of the stack before the parser
moves on, so errors come out in text order.  No list of every line of
the text is built, on reading or on writing.
Python's ``int`` and ``float`` define the valid tokens; a block whose
tokens ``loadtxt`` rejects is scanned line by line with them to find the
offending line.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_left

import numpy as np

from .applications import SdpInstance, WeightedGraph, WeightedHypergraph
from .errors import ParseError
from .linalg import PsdCollection

_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _loadtxt_rejects_float_indices() -> bool:
    """Whether loadtxt rejects '1.0' in an integer column, as Python's int does.

    numpy 1.23 deprecated reading it as 1; a release that still does so
    only warns.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["1.0"], dtype=np.int64)
        except ValueError:
            return True
    return False


# where loadtxt would read the index '1.0' as 1, every block is scanned
_BULK = _loadtxt_rejects_float_indices()

# A line whose first token is ASCII digits after optional signs is an entry
# line; every line these patterns do not vouch for is classified in Python.
_PLAIN_ENTRY = re.compile(r"[ \t]*[+-]*[0-9]+(?:[ \t\n]|\Z)")
_OTHER_LINE = re.compile(r"\n(?![ \t]*[+-]*[0-9]+(?:[ \t\n]|\Z))")
# str.splitlines also breaks lines at these, and at \r\n
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = re.compile(r"\r\n?|[\v\f\x1c-\x1e\x85\u2028\u2029]")


def _parse_float(token: str, no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(no, f"bad {what} {token!r}") from None
    if not np.isfinite(value):
        raise ParseError(no, f"non-finite {what} {token!r}")
    return value


def _parse_int(token: str, no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"bad {what} {token!r}") from None


def _parse_count(token: str, no: int, what: str, least: int = 0) -> int:
    count = _parse_int(token, no, what)
    if count < least:
        bound = "positive" if least else "nonnegative"
        raise ParseError(no, f"{what} must be {bound}, got {count}")
    return count


def _out_of_range(i: int, j: int, n: int) -> str:
    return f"entry ({i}, {j}) out of range for n = {n}"


class _Cursor:
    """The content lines of a text, taken one at a time or a block at once.

    The text is kept whole; no list of its lines is built.  One regex pass
    finds the lines that do not start with an integer token, with their
    numbers and offsets.  Only those are looked at in Python: blank lines
    and comments go to ``skip``, and the rest, the keyword lines that end
    an entry block, go to ``stops``.  ``take`` slices its line out of the
    text, and ``entries`` reads a block where it stands, into its matrix
    of the stack that the header announces.
    """

    def __init__(self, text: str):
        if any(c in text for c in _BREAKS):  # faster than one regex search
            text = _BREAK.sub("\n", text)
        self.text = text
        self.size = text.count("\n") + (text[-1:] not in ("", "\n"))  # lines in the text
        others = [] if _PLAIN_ENTRY.match(text) else [(0, 0)]
        k = prev = 0
        for hit in _OTHER_LINE.finditer(text):
            k += text.count("\n", prev, hit.start()) + 1
            prev = hit.start() + 1
            others.append((k, prev))
        self.skip = []
        self.stops = []
        for k, at in others:
            if k == self.size:
                break  # the empty piece after a final newline
            line = text[at : self._end(at)].strip()
            if not line or line.startswith("#"):
                self.skip.append(k)
            elif not line.split()[0].lstrip("+-").isdigit():
                self.stops.append((k, at))
        self.skipped = set(self.skip)
        self.pos = self.at = 0  # the number and the offset of the next line

    def _end(self, at: int) -> int:
        end = self.text.find("\n", at)
        return len(self.text) if end < 0 else end

    def _next(self) -> int:
        while self.pos in self.skipped:
            self.pos, self.at = self.pos + 1, self._end(self.at) + 1
        return self.pos

    def done(self) -> bool:
        return self._next() >= self.size

    def take(self, what: str):
        if self.done():
            content = (k for k in reversed(range(self.size)) if k not in self.skipped)
            raise ParseError(next(content, 0) + 1, f"unexpected end of input, expected {what}")
        end = self._end(self.at)
        no, line = self.pos + 1, self.text[self.at : end].strip()
        self.pos, self.at = no, end + 1
        return no, line

    def expect_end(self):
        if not self.done():
            line = self.text[self.at : self._end(self.at)].strip()
            raise ParseError(self.pos + 1, f"unexpected trailing content {line!r}")

    def entries(self, out: np.ndarray, context: str):
        """Read the 'i j value' lines up to the next keyword line into ``out``, mirrored.

        The block is split into lines, read, checked and written before the
        cursor moves on, so the lines and entries of one block are all that
        is held beside the text and the stack.  Raises the ParseError of
        the block's first offending line.
        """
        start = self._next()
        at = bisect_left(self.stops, (start, 0))
        end, stop = self.stops[at] if at < len(self.stops) else (self.size, len(self.text))
        lines = self.text[self.at : stop].splitlines()
        rows = range(start, end)
        if self.skip[bisect_left(self.skip, start) : bisect_left(self.skip, end)]:
            rows = [k for k in rows if k not in self.skipped]
            lines = [lines[k - start] for k in rows]  # without the blank and comment lines
        entries, error = self._load_block(lines, rows, context, len(out))
        self._scatter(entries, lines, rows, out)  # an error on an earlier line wins
        if error is not None:
            raise error
        self.pos, self.at = end, stop

    def _load_block(self, lines: list, rows, context: str, n: int):
        if _BULK and lines:
            try:
                return np.loadtxt(lines, dtype=_ENTRY, ndmin=1, comments=None), None
            except ValueError:
                pass
        return self._scan(lines, rows, context, n)

    def _scan(self, lines: list, rows, context: str, n: int):
        """Read a block with Python's int and float, up to its first bad token.

        Returns the entries before the offending line and that line's
        ParseError, or all entries and None.
        """
        out = []
        for k, line in zip(rows, lines):
            no, parts = k + 1, line.split()
            try:
                if len(parts) != 3:
                    raise ParseError(no, f"expected 'i j value' in {context}")
                i = _parse_int(parts[0], no, "row index")
                j = _parse_int(parts[1], no, "column index")
                if not (0 <= i < n and 0 <= j < n):
                    raise ParseError(no, _out_of_range(i, j, n))
                out.append((i, j, _parse_float(parts[2], no, "entry value")))
            except ParseError as exc:
                return np.array(out, dtype=_ENTRY), exc
        return np.array(out, dtype=_ENTRY), None

    def _scatter(self, entries: np.ndarray, lines: list, rows, out: np.ndarray):
        """Check the entries of one block and write them, mirrored, into ``out``.

        Entries on one line are checked in the order range, finiteness,
        duplicates.  A repeated entry must repeat its value, and its last
        occurrence is written.
        """
        n = len(out)
        i, j, v = entries["i"], entries["j"], entries["v"]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        flat = lo * n + hi
        order = np.argsort(flat, kind="stable")
        flat_sorted, v_sorted = flat[order], v[order]
        same = flat_sorted[1:] == flat_sorted[:-1]
        clash = order[1:][same & (v_sorted[1:] != v_sorted[:-1])]
        bad = (np.flatnonzero((lo < 0) | (hi >= n)), np.flatnonzero(~np.isfinite(v)), clash)
        first = [(int(hits.min()), check) for check, hits in enumerate(bad) if hits.size]
        if first:
            row, check = min(first)
            if check == 0:
                message = _out_of_range(int(i[row]), int(j[row]), n)
            elif check == 1:
                message = f"non-finite entry value {lines[row].split()[2]!r}"
            else:
                message = f"asymmetric duplicate entry at {(int(lo[row]), int(hi[row]))}"
            raise ParseError(rows[row] + 1, message)
        last = np.ones(len(order), dtype=bool)
        last[:-1] = ~same
        keep = order[last]
        lo, hi, v = lo[keep], hi[keep], v[keep]
        out[lo, hi] = v
        out[hi, lo] = v


def _stack(no: int, count: int, n: int) -> np.ndarray:
    """The zeroed (count, n, n) stack that the header on line ``no`` announces."""
    try:
        return np.zeros((count, n, n))
    except (ValueError, MemoryError):
        raise ParseError(no, f"cannot allocate {count} matrices of dimension {n}") from None


def _dims(cur: _Cursor, keyword: str | None = None):
    """The line number, n and m of the header 'n m', or '<keyword> n m'."""
    head = f"{keyword} " if keyword else ""
    no, line = cur.take(f"header '{head}n m'")
    parts = line.split()
    if keyword is not None:
        parts = parts[1:] if parts[0] == keyword else []
    if len(parts) != 2:
        raise ParseError(no, f"{head}header must be '{head}n m'")
    n = _parse_int(parts[0], no, "dimension")
    m = _parse_int(parts[1], no, "matrix count")
    if n < 1 or m < 1:
        raise ParseError(no, "n and m must be positive")
    return no, n, m


def _values(cur: _Cursor, keyword: str, m: int, what: str) -> np.ndarray:
    """The m values of the line '<keyword> v1 ... vm'."""
    no, line = cur.take(f"'{keyword} ...' line")
    parts = line.split()
    if parts[0] != keyword or len(parts) != m + 1:
        raise ParseError(no, f"expected '{keyword}' with {m} values")
    return np.array([_parse_float(v, no, what) for v in parts[1:]])


def _mat_blocks(cur: _Cursor, stack: np.ndarray):
    for k, out in enumerate(stack):
        no, line = cur.take(f"'mat {k}' header")
        parts = line.split()
        if parts[0] != "mat" or len(parts) != 2:
            raise ParseError(no, f"expected 'mat {k}' header, got {line!r}")
        if _parse_int(parts[1], no, "matrix index") != k:
            raise ParseError(no, f"matrix headers must run 0..{len(stack) - 1} in order")
        cur.entries(out, f"mat {k}")


def parse_matrix_collection(text: str) -> PsdCollection:
    cur = _Cursor(text)
    no, n, m = _dims(cur)
    stack = _stack(no, m, n)
    _mat_blocks(cur, stack)
    cur.expect_end()
    return PsdCollection.from_matrices(stack)


def parse_graph(text: str) -> WeightedGraph:
    cur = _Cursor(text)
    no, header = cur.take("vertex count")
    if len(header.split()) != 1:
        raise ParseError(no, "graph header must be a single vertex count")
    n = _parse_count(header, no, "vertex count", least=1)
    edges = []
    seen = set()
    while not cur.done():
        no, line = cur.take("edge")
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(no, "expected 'u v weight'")
        u = _parse_int(parts[0], no, "vertex")
        v = _parse_int(parts[1], no, "vertex")
        w = _parse_float(parts[2], no, "weight")
        if u == v:
            raise ParseError(no, f"self-loop at vertex {u}")
        u, v = (u, v) if u < v else (v, u)
        if not 1 <= u < v <= n:
            raise ParseError(no, f"edge ({u}, {v}) out of range for n = {n}")
        if (u, v) in seen:
            raise ParseError(no, f"duplicate edge ({u}, {v})")
        if w <= 0:
            raise ParseError(no, f"edge weight must be positive, got {w}")
        seen.add((u, v))
        edges.append((u, v, w))
    return WeightedGraph(n=n, edges=edges)


def parse_hypergraph(text: str) -> WeightedHypergraph:
    cur = _Cursor(text)
    no, header = cur.take("vertex count")
    if len(header.split()) != 1:
        raise ParseError(no, "hypergraph header must be a single vertex count")
    n = _parse_count(header, no, "vertex count", least=1)
    hyperedges = []
    while not cur.done():
        no, line = cur.take("hyperedge")
        parts = line.split()
        k = _parse_int(parts[0], no, "hyperedge size")
        if k < 2:
            raise ParseError(no, f"hyperedge size must be at least 2, got {k}")
        if len(parts) != k + 2:
            raise ParseError(no, f"expected {k} vertices and a weight")
        verts = tuple(_parse_int(p, no, "vertex") for p in parts[1 : 1 + k])
        if len(set(verts)) != k:
            raise ParseError(no, f"hyperedge {verts} repeats a vertex")
        if any(not 1 <= v <= n for v in verts):
            raise ParseError(no, f"hyperedge {verts} out of range for n = {n}")
        w = _parse_float(parts[1 + k], no, "weight")
        if w <= 0:
            raise ParseError(no, f"hyperedge weight must be positive, got {w}")
        hyperedges.append((tuple(sorted(verts)), w))
    return WeightedHypergraph(n=n, hyperedges=hyperedges)


def parse_costs(text: str) -> list:
    cur = _Cursor(text)
    no, header = cur.take("header 'k m'")
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(no, "costs header must be 'k m'")
    k = _parse_count(parts[0], no, "cost count")
    m = _parse_count(parts[1], no, "edge count")
    costs = []
    for i in range(k):
        no, line = cur.take(f"cost vector {i}")
        values = line.split()
        if len(values) != m:
            raise ParseError(no, f"cost vector {i} has {len(values)} entries, expected {m}")
        costs.append(np.array([_parse_float(v, no, "cost") for v in values]))
    cur.expect_end()
    return costs


def parse_family(text: str) -> list:
    cur = _Cursor(text)
    no, header = cur.take("member count")
    count = _parse_count(header, no, "member count")
    family = []
    for i in range(count):
        no, line = cur.take(f"edge count of member {i}")
        e = _parse_count(line, no, "edge count")
        member = []
        for _ in range(e):
            no, line = cur.take("edge")
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(no, "expected 'u v'")
            member.append(
                (_parse_int(parts[0], no, "vertex"), _parse_int(parts[1], no, "vertex"))
            )
        family.append(member)
    cur.expect_end()
    return family


def parse_sdp(text: str) -> SdpInstance:
    cur = _Cursor(text)
    no, n, m = _dims(cur, "sdp")
    stack = _stack(no, m + 1, n)
    _mat_blocks(cur, stack[:-1])
    no, line = cur.take("'target' header")
    if line != "target":
        raise ParseError(no, f"expected 'target', got {line!r}")
    cur.entries(stack[-1], "target")
    cost = _values(cur, "cost", m, "cost")
    z_star = _values(cur, "feasible", m, "feasible value")
    cur.expect_end()
    return SdpInstance(matrices=stack[:-1], target=stack[-1], cost=cost, z_star=z_star)


def parse_simplex(text: str) -> tuple[np.ndarray, PsdCollection]:
    cur = _Cursor(text)
    no, n, m = _dims(cur, "simplex")
    lam = _values(cur, "lambda", m, "lambda value")
    stack = _stack(no, m, n)
    _mat_blocks(cur, stack)
    cur.expect_end()
    return lam, PsdCollection.from_matrices(stack)


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_matrix_collection(coll: PsdCollection) -> str:
    upper = np.triu_indices(coll.dim)
    heads = [f"{i} {j} " for i, j in zip(upper[0].tolist(), upper[1].tolist())]
    blocks = [f"{coll.dim} {len(coll)}\n"]
    for k, mat in enumerate(coll.matrices):
        values = mat[upper].tolist()
        lines = "".join(h + repr(v) + "\n" for h, v in zip(heads, values) if v != 0.0)
        blocks.append(f"mat {k}\n{lines}")  # -0.0 == 0.0, so zeros of both signs are left out
    return "".join(blocks)


def emit_graph(g: WeightedGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v} {_fmt(w)}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


def emit_hypergraph(h: WeightedHypergraph) -> str:
    lines = [str(h.n)]
    for verts, w in h.hyperedges:
        lines.append(f"{len(verts)} " + " ".join(str(v) for v in verts) + f" {_fmt(w)}")
    return "\n".join(lines) + "\n"


def emit_costs(costs) -> str:
    costs = [np.asarray(c, dtype=float) for c in costs]
    m = costs[0].size if costs else 0
    lines = [f"{len(costs)} {m}"]
    lines.extend(" ".join(_fmt(v) for v in c) for c in costs)
    return "\n".join(lines) + "\n"
