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

The entry blocks of the matrices, sdp and simplex formats are read in
bulk: one ``numpy.loadtxt`` call per block, then the range, finiteness
and duplicate checks over every block at once.  Python's ``int`` and
``float`` define the valid tokens; a block whose tokens ``loadtxt``
rejects is scanned line by line with them to find the offending line.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_left

import numpy as np

from .applications import SdpInstance, WeightedGraph, WeightedHypergraph
from .errors import ParseError
from .linalg import PsdCollection, symmetrize

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


def _out_of_range(i: int, j: int, n: int) -> str:
    return f"entry ({i}, {j}) out of range for n = {n}"


class _Cursor:
    """The content lines of a text, taken one at a time or a block at once.

    The text is split into lines once, and one regex pass finds the lines
    that do not start with an integer token.  Only those are looked at in
    Python: blank lines and comments go to ``skip``, and the rest, the
    keyword lines that end an entry block, go to ``stops``.  ``entries``
    records a block without reading it; ``load`` reads every recorded block.
    """

    def __init__(self, text: str):
        self.text = text
        self.lines = text.splitlines()
        flat = text
        if len(self.lines) != text.count("\n") + (not text.endswith("\n")):
            flat = "\n".join(self.lines)  # splitlines also breaks at \r, \f, ...
        others = [] if _PLAIN_ENTRY.match(flat) else [0]
        k = prev = 0
        for hit in _OTHER_LINE.finditer(flat):
            k += flat.count("\n", prev, hit.start()) + 1
            prev = hit.start() + 1
            others.append(k)
        self.skip = []
        self.stops = []
        for k in others[: bisect_left(others, len(self.lines))]:
            line = self.lines[k].strip()
            if not line or line.startswith("#"):
                self.skip.append(k)
            elif not line.split()[0].lstrip("+-").isdigit():
                self.stops.append(k)
        self.skipped = set(self.skip)
        self.pos = 0
        self.n = 0
        self.blocks = []

    def _next(self) -> int:
        while self.pos in self.skipped:
            self.pos += 1
        return self.pos

    def done(self) -> bool:
        return self._next() >= len(self.lines)

    def take(self, what: str):
        if self.done():
            content = (k for k in reversed(range(len(self.lines))) if k not in self.skipped)
            raise ParseError(next(content, 0) + 1, f"unexpected end of input, expected {what}")
        k = self.pos
        self.pos += 1
        return k + 1, self.lines[k].strip()

    def expect_end(self):
        if not self.done():
            line = self.lines[self.pos].strip()
            raise ParseError(self.pos + 1, f"unexpected trailing content {line!r}")

    def entries(self, n: int, context: str):
        """Record the 'i j value' lines up to the next keyword line as one block."""
        start = self._next()
        at = bisect_left(self.stops, start)
        end = self.stops[at] if at < len(self.stops) else len(self.lines)
        gaps = self.skip[bisect_left(self.skip, start) : bisect_left(self.skip, end)]
        rows = range(start, end)
        if gaps:
            rows = [k for k in rows if k not in self.skipped]
        self.n = n
        self.blocks.append((rows, context))
        self.pos = end

    def load(self):
        """Read the recorded blocks into one (blocks, n, n) stack, mirrored.

        This is the cursor's last step: it drops the line list before the
        checks, which keeps the peak memory of a large file down.  Raises
        the ParseError of the first offending entry line.
        """
        if not self.blocks:
            return None
        stack = np.zeros((len(self.blocks), self.n, self.n))
        loaded, error = [], None
        for rows, context in self.blocks:
            entries, error = self._load_block(rows, context)
            loaded.append(entries)
            if error is not None:
                break
        self.lines = None
        sizes = [len(e) for e in loaded]
        entries = np.concatenate(loaded)
        del loaded
        self._scatter(entries, sizes, stack)  # an error on an earlier line wins
        if error is not None:
            raise error
        return stack

    def _load_block(self, rows, context: str):
        if isinstance(rows, range):
            lines = self.lines[rows.start : rows.stop]
        else:
            lines = [self.lines[k] for k in rows]
        if not lines:
            return np.zeros(0, _ENTRY), None
        if _BULK:
            try:
                return np.loadtxt(lines, dtype=_ENTRY, ndmin=1, comments=None), None
            except ValueError:
                pass
        return self._scan(rows, context)

    def _scan(self, rows, context: str):
        """Read a block with Python's int and float, up to its first bad token.

        Returns the entries before the offending line and that line's
        ParseError, or all entries and None.
        """
        n = self.n
        out = []
        for k in rows:
            no, parts = k + 1, self.lines[k].split()
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

    def _scatter(self, entries: np.ndarray, sizes: list, stack: np.ndarray):
        """Check the entries of the blocks and write them, mirrored, into ``stack``.

        ``sizes`` holds the entry count of each block.  Entries on one line
        are checked in the order range, finiteness, duplicates.  A repeated
        entry must repeat its value, and its last occurrence is written.
        """
        n = self.n
        i, j, v = entries["i"], entries["j"], entries["v"]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        flat = np.repeat(np.arange(len(sizes)) * (n * n), sizes)  # (block, lo, hi) in the stack
        flat += lo * n + hi
        order = np.argsort(flat, kind="stable")
        flat_sorted, v_sorted = flat[order], v[order]
        same = flat_sorted[1:] == flat_sorted[:-1]
        clash = order[1:][same & (v_sorted[1:] != v_sorted[:-1])]
        bad = (np.flatnonzero((lo < 0) | (hi >= n)), np.flatnonzero(~np.isfinite(v)), clash)
        first = [(int(rows.min()), check) for check, rows in enumerate(bad) if rows.size]
        if first:
            row, check = min(first)
            ends = np.cumsum(sizes)
            b = int(np.searchsorted(ends, row, side="right"))
            k = self.blocks[b][0][row - (int(ends[b - 1]) if b else 0)]
            if check == 0:
                message = _out_of_range(int(i[row]), int(j[row]), n)
            elif check == 1:
                message = f"non-finite entry value {self.text.splitlines()[k].split()[2]!r}"
            else:
                message = f"asymmetric duplicate entry at {(int(lo[row]), int(hi[row]))}"
            raise ParseError(k + 1, message)
        last = np.ones(len(order), dtype=bool)
        last[:-1] = ~same
        keep = order[last]
        out = stack.reshape(-1)
        out[flat[keep]] = v[keep]
        out[flat[keep] + (hi[keep] - lo[keep]) * (n - 1)] = v[keep]  # (block, hi, lo)


def _read(text: str, walk):
    """Walk the keyword structure of ``text``, then load its entry blocks.

    An error the walk meets is raised only after the blocks before it are
    read, so the first offending line is the one reported.  Returns what
    ``walk`` returns and the stack of blocks.
    """
    cur = _Cursor(text)
    try:
        result, late = walk(cur), None
    except ParseError as exc:
        result, late = None, exc
    stack = cur.load()
    if late is not None:
        raise late
    return result, stack


def _mat_blocks(cur: _Cursor, n: int, m: int):
    for k in range(m):
        no, line = cur.take(f"'mat {k}' header")
        parts = line.split()
        if parts[0] != "mat" or len(parts) != 2:
            raise ParseError(no, f"expected 'mat {k}' header, got {line!r}")
        if _parse_int(parts[1], no, "matrix index") != k:
            raise ParseError(no, f"matrix headers must run 0..{m - 1} in order")
        cur.entries(n, f"mat {k}")


def parse_matrix_collection(text: str) -> PsdCollection:
    def walk(cur):
        no, header = cur.take("header 'n m'")
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(no, "header must be 'n m'")
        n = _parse_int(parts[0], no, "dimension")
        m = _parse_int(parts[1], no, "matrix count")
        if n < 1 or m < 1:
            raise ParseError(no, "n and m must be positive")
        _mat_blocks(cur, n, m)
        cur.expect_end()

    _, stack = _read(text, walk)
    return PsdCollection.from_matrices(stack)


def parse_graph(text: str) -> WeightedGraph:
    cur = _Cursor(text)
    no, header = cur.take("vertex count")
    if len(header.split()) != 1:
        raise ParseError(no, "graph header must be a single vertex count")
    n = _parse_int(header, no, "vertex count")
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
    n = _parse_int(header, no, "vertex count")
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
    k = _parse_int(parts[0], no, "cost count")
    m = _parse_int(parts[1], no, "edge count")
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
    count = _parse_int(header, no, "member count")
    family = []
    for i in range(count):
        no, line = cur.take(f"edge count of member {i}")
        e = _parse_int(line, no, "edge count")
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
    def walk(cur):
        no, header = cur.take("header 'sdp n m'")
        parts = header.split()
        if len(parts) != 3 or parts[0] != "sdp":
            raise ParseError(no, "sdp header must be 'sdp n m'")
        n = _parse_int(parts[1], no, "dimension")
        m = _parse_int(parts[2], no, "matrix count")
        if n < 1 or m < 1:
            raise ParseError(no, "n and m must be positive")
        _mat_blocks(cur, n, m)
        no, line = cur.take("'target' header")
        if line != "target":
            raise ParseError(no, f"expected 'target', got {line!r}")
        cur.entries(n, "target")
        no, line = cur.take("'cost ...' line")
        parts = line.split()
        if parts[0] != "cost" or len(parts) != m + 1:
            raise ParseError(no, f"expected 'cost' with {m} values")
        cost = np.array([_parse_float(v, no, "cost") for v in parts[1:]])
        no, line = cur.take("'feasible ...' line")
        parts = line.split()
        if parts[0] != "feasible" or len(parts) != m + 1:
            raise ParseError(no, f"expected 'feasible' with {m} values")
        z_star = np.array([_parse_float(v, no, "feasible value") for v in parts[1:]])
        cur.expect_end()
        return cost, z_star

    (cost, z_star), stack = _read(text, walk)
    return SdpInstance(
        matrices=list(symmetrize(stack[:-1])), target=stack[-1], cost=cost, z_star=z_star
    )


def parse_simplex(text: str) -> tuple[np.ndarray, PsdCollection]:
    def walk(cur):
        no, header = cur.take("header 'simplex n m'")
        parts = header.split()
        if len(parts) != 3 or parts[0] != "simplex":
            raise ParseError(no, "simplex header must be 'simplex n m'")
        n = _parse_int(parts[1], no, "dimension")
        m = _parse_int(parts[2], no, "matrix count")
        if n < 1 or m < 1:
            raise ParseError(no, "n and m must be positive")
        no, line = cur.take("'lambda ...' line")
        parts = line.split()
        if parts[0] != "lambda" or len(parts) != m + 1:
            raise ParseError(no, f"expected 'lambda' with {m} values")
        lam = np.array([_parse_float(v, no, "lambda value") for v in parts[1:]])
        _mat_blocks(cur, n, m)
        cur.expect_end()
        return lam

    lam, stack = _read(text, walk)
    return lam, PsdCollection.from_matrices([] if stack is None else stack)


def _fmt(value: float) -> str:
    return repr(float(value))


def _entry_lines(mat: np.ndarray) -> list:
    n = mat.shape[0]
    lines = []
    for i in range(n):
        for j in range(i, n):
            if mat[i, j] != 0.0:
                lines.append(f"{i} {j} {_fmt(mat[i, j])}")
    return lines


def emit_matrix_collection(coll: PsdCollection) -> str:
    lines = [f"{coll.dim} {len(coll)}"]
    for k, mat in enumerate(coll.matrices):
        lines.append(f"mat {k}")
        lines.extend(_entry_lines(mat))
    return "\n".join(lines) + "\n"


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
