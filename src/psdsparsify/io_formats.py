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
``(count, n, n)`` stack, allocated once.  The entry blocks are read
``FACTOR_BATCH`` at a time: the headers of a batch are checked, then the
entry lines of all its blocks go through one ``numpy.loadtxt`` call and
one whole-array check for range, finiteness and duplicates, and are
written into their matrices of the stack before the next batch is read.
A batch that fails either is read again line by line with Python's
``int`` and ``float``, which define the valid tokens; that read alone
names the offending line, so errors come out in text order.  Only the
lines of one block are held as strings at a time; no list of every line
of the text is built, on reading or on writing.  Line numbers are
counted only where a line is reported.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_left
from itertools import chain

import numpy as np

from .applications import SdpInstance, WeightedGraph, WeightedHypergraph
from .errors import ParseError
from .linalg import FACTOR_BATCH, PsdCollection


def _entry_type(n: int) -> np.dtype:
    """The record of one 'i j value' line of a member of dimension ``n``.

    The indices take the narrowest type that holds every index below n, so
    a line of a member below dimension 2**15 takes 12 bytes, half the text it
    is read from.  No stack of dimension 2**31 can be allocated.
    """
    index = np.int16 if n < 2**15 else np.int32
    return np.dtype([("i", index), ("j", index), ("v", np.float64)])


def _loadtxt_rejects_float_indices() -> bool:
    """Whether loadtxt rejects '1.0' in an integer column, as Python's int does.

    numpy 1.23 deprecated reading it as 1; a release that still does so
    only warns.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["1.0"], dtype=np.int16)
        except ValueError:
            return True
    return False


# where loadtxt would read the index '1.0' as 1, every block is scanned
_BULK = _loadtxt_rejects_float_indices()

# A line that starts with ASCII digits and a space or tab is an entry line;
# every line these patterns do not vouch for is classified in Python.
_PLAIN_ENTRY = re.compile(r"[0-9]+[ \t]")
_OTHER_LINE = re.compile(r"\n(?![0-9]+[ \t])")
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


def _is_content(line: str) -> bool:
    """Whether a line is neither blank nor a full-line comment."""
    parts = line.split(maxsplit=1)
    return bool(parts) and not parts[0].startswith("#")


class _Cursor:
    """The content lines of a text, taken one at a time or a batch of blocks at once.

    The text is kept whole; no list of its lines is built, and the cursor
    moves by offsets.  One regex pass finds the lines that do not start
    with an integer token.  Only those are looked at in Python: blank
    lines and comments go to ``skip``, and the rest, the keyword lines that
    end an entry block, go to ``stops``.  ``take`` slices its line out of
    the text, ``block`` steps over an entry block, and ``read`` reads the
    blocks it stepped over into their matrices.  A line's number is
    counted from the last one counted, only when it is asked for.
    """

    def __init__(self, text: str):
        if any(c in text for c in _BREAKS):  # faster than one regex search
            text = _BREAK.sub("\n", text)
        self.text = text
        others = [] if _PLAIN_ENTRY.match(text) else [0]
        others += [hit.start() + 1 for hit in _OTHER_LINE.finditer(text)]
        self.skip = []
        self.stops = []
        for at in others:
            if at == len(text):
                break  # the empty piece after a final newline
            line = text[at : self._end(at)]
            if not _is_content(line):
                self.skip.append(at)
            elif not line.split()[0].lstrip("+-").isdigit():
                self.stops.append(at)
        self.skipped = set(self.skip)
        self.at = 0  # the offset of the next line
        self._counted = (0, 1)  # an offset at the start of a line, and that line's number

    def line_no(self, at: int) -> int:
        """The number of the line that starts at offset ``at``."""
        since, no = self._counted
        if at < since:
            since, no = 0, 1
        no += self.text.count("\n", since, at)
        self._counted = (at, no)
        return no

    def _end(self, at: int) -> int:
        end = self.text.find("\n", at)
        return len(self.text) if end < 0 else end

    def _next(self) -> int:
        while self.at in self.skipped:
            self.at = self._end(self.at) + 1
        return self.at

    def done(self) -> bool:
        return self._next() >= len(self.text)

    def _last_line(self) -> int:
        """The number of the last content line, or 1 in a text without one."""
        end = len(self.text) - self.text.endswith("\n")
        while end >= 0:
            at = self.text.rfind("\n", 0, end) + 1
            if at not in self.skipped:
                return self.line_no(at)
            end = at - 1
        return 1

    def take_at(self, what: str):
        """The offset and the stripped text of the next content line, which is taken."""
        if self.done():
            raise ParseError(self._last_line(), f"unexpected end of input, expected {what}")
        at, end = self.at, self._end(self.at)
        self.at = end + 1
        return at, self.text[at:end].strip()

    def take(self, what: str):
        """The number and the stripped text of the next content line, which is taken."""
        at, line = self.take_at(what)
        return self.line_no(at), line

    def expect_end(self):
        if not self.done():
            line = self.text[self.at : self._end(self.at)].strip()
            raise ParseError(self.line_no(self.at), f"unexpected trailing content {line!r}")

    def block(self, name: str) -> tuple[int, int, str]:
        """Step over the entry lines up to the next keyword line.

        Returns their offsets and ``name``, which names the block in errors.
        """
        start = self._next()
        at = bisect_left(self.stops, start)
        self.at = self.stops[at] if at < len(self.stops) else len(self.text)
        return start, self.at, name

    def _lines(self, block: tuple[int, int, str]) -> list:
        """The entry lines of one block, without its blank and comment lines."""
        start, stop, _ = block
        lines = self.text[start:stop].splitlines()
        at = bisect_left(self.skip, start)
        if at < len(self.skip) and self.skip[at] < stop:
            lines = list(filter(_is_content, lines))
        return lines

    def read(self, out: np.ndarray, blocks: list):
        """Read the entry blocks that ``block`` stepped over into the members of
        ``out``, mirrored.

        All their entry lines go through one ``loadtxt`` call, fed one block's
        lines at a time, and one check.  A batch that fails either is read
        again by ``_scan``, which raises the ParseError of the first offending
        line.
        """
        counts = []

        def lines(block):
            kept = self._lines(block)
            counts.append(len(kept))
            return kept

        entry = _entry_type(out.shape[1])
        entries = None
        if _BULK:
            fed = chain.from_iterable(map(lines, blocks))
            first = next(fed, None)  # loadtxt warns when it reads no line at all
            try:
                entries = np.zeros(0, entry) if first is None else np.loadtxt(
                    chain((first,), fed), dtype=entry, ndmin=1, comments=None
                )
            except ValueError:
                pass
        if entries is None or not _stored(out, entries, counts):
            self._scan(out, blocks)
        del entries  # freed before the mirror's gather copy
        # the entries went to the upper triangles; the strict lower ones are still zero
        lower = np.tril_indices(out.shape[1], -1)
        out[:, lower[0], lower[1]] = out[:, lower[1], lower[0]]

    def _scan(self, out: np.ndarray, blocks: list):
        """Read blocks line by line with Python's int and float into the upper
        triangles of the members of ``out``.

        Each line is checked in the order field count, row index, column
        index, range, value token, finiteness, and last whether it repeats an
        earlier entry of its block with another value; the first failure
        raises its ParseError.  A repeated entry's last occurrence is written.
        """
        n = out.shape[1]
        for member, (start, stop, name) in zip(out.reshape(len(out), n * n), blocks):
            first, seen = self.line_no(start), {}
            for k, line in enumerate(self.text[start:stop].splitlines()):
                if not _is_content(line):
                    continue
                no, parts = first + k, line.split()
                if len(parts) != 3:
                    raise ParseError(no, f"expected 'i j value' in {name}")
                i = _parse_int(parts[0], no, "row index")
                j = _parse_int(parts[1], no, "column index")
                if not (0 <= i < n and 0 <= j < n):
                    raise ParseError(no, _out_of_range(i, j, n))
                value = _parse_float(parts[2], no, "entry value")
                lo, hi = sorted((i, j))
                if seen.setdefault((lo, hi), value) != value:
                    raise ParseError(no, f"asymmetric duplicate entry at {(lo, hi)}")
                member[lo * n + hi] = value


def _stored(out: np.ndarray, entries: np.ndarray, counts: list) -> bool:
    """Check the entries of consecutive blocks and, only if they pass, write
    each block's into the upper triangle of its member of ``out``.

    They pass when every index is in range, every value is finite and a
    repeated entry repeats its value within its block; its last occurrence
    is written.  Returns whether they passed.
    """
    n = out.shape[1]
    i, j, v = entries["i"], entries["j"], entries["v"]
    # the offset lo n + hi of each entry in its member, which no index of
    # the entry type can overflow
    keys = np.minimum(i, j, dtype=np.int32 if n < 2**15 else np.int64)
    outside = keys.min(initial=0) < 0 or max(i.max(initial=0), j.max(initial=0)) >= n
    if outside or not np.isfinite(v).all():
        return False
    keys *= n - 1
    keys += i
    keys += j  # lo (n - 1) + i + j = lo n + hi
    counts = np.array(counts, dtype=np.int64)
    bounds = np.cumsum(counts)
    starts = bounds - counts
    rising = keys[1:] > keys[:-1]
    rising[starts[(starts > 0) & (starts < len(keys))] - 1] = True  # a new block
    last = None
    if not rising.all():  # so an entry may repeat
        owner = np.repeat(np.arange(len(counts)), counts)
        order = np.lexsort((keys, owner))  # stable
        same = (owner[order[1:]] == owner[order[:-1]]) & (keys[order[1:]] == keys[order[:-1]])
        if (same & (v[order[1:]] != v[order[:-1]])).any():
            return False
        last = np.ones(len(keys), dtype=bool)
        last[order[:-1][same]] = False
    del rising  # so that the records, the keys and one mask bound the peak
    for member, start, stop in zip(out.reshape(len(out), n * n), starts, bounds):
        rows = slice(start, stop) if last is None else start + np.flatnonzero(last[start:stop])
        member[keys[rows]] = v[rows]
    return True


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


def _mat_header(cur: _Cursor, k: int, m: int):
    at, line = cur.take_at(f"'mat {k}' header")
    parts = line.split()
    if parts == ["mat", str(k)]:
        return  # the usual header, whose line number is not needed
    no = cur.line_no(at)
    if parts[0] != "mat" or len(parts) != 2:
        raise ParseError(no, f"expected 'mat {k}' header, got {line!r}")
    if _parse_int(parts[1], no, "matrix index") != k:
        raise ParseError(no, f"matrix headers must run 0..{m - 1} in order")


def _mat_blocks(cur: _Cursor, stack: np.ndarray):
    """Read the blocks 'mat 0' ... into ``stack``, ``FACTOR_BATCH`` at a time."""
    for lo in range(0, len(stack), FACTOR_BATCH):
        blocks, error = [], None
        for k in range(lo, min(lo + FACTOR_BATCH, len(stack))):
            try:
                _mat_header(cur, k, len(stack))
            except ParseError as exc:
                error = exc  # raised after the blocks before it are read
                break
            blocks.append(cur.block(f"mat {k}"))
        cur.read(stack[lo : lo + len(blocks)], blocks)
        if error is not None:
            raise error


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
    cur.read(stack[-1:], [cur.block("target")])
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
