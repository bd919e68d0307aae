"""Text formats, round trips, and the batch command line."""

import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdsparsify import cli, io_formats
from psdsparsify.errors import InvalidMatrix, NotPsd, ParseError
from psdsparsify.io_formats import (
    emit_costs,
    emit_graph,
    emit_hypergraph,
    emit_matrix_collection,
    parse_costs,
    parse_family,
    parse_graph,
    parse_hypergraph,
    parse_matrix_collection,
    parse_sdp,
    parse_simplex,
)
from psdsparsify.instances import complete_graph, identity_decomposition, random_psd_collection
from psdsparsify.linalg import PsdCollection


class TestMatrixFormat:
    def test_single_identity(self):
        coll = parse_matrix_collection("2 1\nmat 0\n0 0 1.0\n1 1 1.0\n")
        assert coll.dim == 2 and len(coll) == 1
        np.testing.assert_allclose(coll.matrices[0], np.eye(2))

    def test_two_diagonal_matrices(self):
        coll = parse_matrix_collection("2 2\nmat 0\n0 0 1\nmat 1\n1 1 1\n")
        np.testing.assert_allclose(coll.matrices[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(coll.matrices[1], np.diag([0.0, 1.0]))

    def test_missing_mat_header(self):
        with pytest.raises(ParseError):
            parse_matrix_collection("2 1\n0 0 1.0\n")

    def test_mirrored_entry(self):
        coll = parse_matrix_collection("2 1\nmat 0\n0 0 2\n1 0 0.5\n1 1 2\n")
        np.testing.assert_allclose(coll.matrices[0], [[2.0, 0.5], [0.5, 2.0]])

    def test_asymmetric_duplicate(self):
        with pytest.raises(ParseError, match="asymmetric duplicate"):
            parse_matrix_collection("2 1\nmat 0\n0 1 0.5\n1 0 0.25\n0 0 1\n1 1 1\n")

    def test_comments_and_blanks_ignored(self):
        text = "# collection\n\n2 1\nmat 0\n# entries\n0 0 1.0\n1 1 1.0\n"
        coll = parse_matrix_collection(text)
        np.testing.assert_allclose(coll.matrices[0], np.eye(2))

    def test_roundtrip(self):
        coll = random_psd_collection(3, 4, seed=6)
        text = emit_matrix_collection(coll)
        again = parse_matrix_collection(text)
        assert emit_matrix_collection(again) == text
        for a, b in zip(coll.matrices, again.matrices):
            assert np.array_equal(a, b)


_M = "2 1\nmat 0\n"
_SDP = "sdp 2 2\nmat 0\n0 0 1\nmat 1\n1 1 1\n"
_SPX = "simplex 2 2\nlambda 0.5 0.5\nmat 0\n0 0 1\n"
_PARSE = {"matrices": parse_matrix_collection, "sdp": parse_sdp, "simplex": parse_simplex}

# (kind, text, line, message): the first offending line and its error
_MAT_BLOCK_ERRORS = {
    "two-tokens": ("matrices", _M + "0 0 1\n1 1\n", 4, "expected 'i j value' in mat 0"),
    "four-tokens": ("matrices", _M + "0 0 1 5\n", 3, "expected 'i j value' in mat 0"),
    "trailing-comment": ("matrices", _M + "0 0 1 # c\n1 1 1\n", 3, "expected 'i j value' in mat 0"),
    "glued-comment": ("matrices", _M + "0 0 1#c\n", 3, "bad entry value '1#c'"),
    "float-column": ("matrices", _M + "0 1.0 1\n", 3, "bad column index '1.0'"),
    "letter-column": ("matrices", _M + "0 x 1\n", 3, "bad column index 'x'"),
    "digit-letter-column": ("matrices", _M + "0 1a 1\n", 3, "bad column index '1a'"),
    "float-row": ("matrices", _M + "0 0 1\n1.0 1 1\n", 4, "unexpected trailing content '1.0 1 1'"),
    "letter-row": ("matrices", _M + "x 0 1\n", 3, "unexpected trailing content 'x 0 1'"),
    "digit-letter-row": ("sdp", _SDP + "1a 0 1\ntarget\ncost 1 1\nfeasible 1 1\n", 6,
        "expected 'target', got '1a 0 1'"),
    "double-sign-row": ("matrices", _M + "+-1 0 1\n", 3, "bad row index '+-1'"),
    "bad-value": ("matrices", _M + "0 0 1,5\n", 3, "bad entry value '1,5'"),
    "out-of-range": ("matrices", _M + "0 0 1\n0 2 1\n", 4, "entry (0, 2) out of range for n = 2"),
    "negative-index": ("matrices", _M + "-1 0 1\n", 3, "entry (-1, 0) out of range for n = 2"),
    "huge-index": ("matrices", _M + "0 99999999999999999999 1\n", 3,
        "entry (0, 99999999999999999999) out of range for n = 2"),
    "range-before-value": ("matrices", _M + "0 5 abc\n", 3, "entry (0, 5) out of range for n = 2"),
    "range-before-non-finite": ("matrices", _M + "0 5 nan\n", 3,
        "entry (0, 5) out of range for n = 2"),
    "non-finite-before-duplicate": ("matrices", _M + "0 1 1\n1 0 inf\n", 4,
        "non-finite entry value 'inf'"),
    "nan": ("matrices", _M + "0 0 nan\n", 3, "non-finite entry value 'nan'"),
    "inf": ("matrices", _M + "0 0 1\n1 1 -inf\n", 4, "non-finite entry value '-inf'"),
    "overflow": ("matrices", _M + "0 0 1e999\n", 3, "non-finite entry value '1e999'"),
    "asymmetric-duplicate": ("matrices", _M + "0 1 0.5\n1 0 0.25\n0 0 1\n1 1 1\n", 4,
        "asymmetric duplicate entry at (0, 1)"),
    "asymmetric-third": ("matrices", _M + "0 1 0.5\n1 0 0.5\n0 0 1\n0 1 0.25\n", 6,
        "asymmetric duplicate entry at (0, 1)"),
    "headers-out-of-order": ("matrices", "2 2\nmat 1\n1 1 1\nmat 0\n0 0 1\n", 2,
        "matrix headers must run 0..1 in order"),
    "header-not-mat": ("matrices", "2 2\nmat 0\n0 0 1\nmat\n1 1 1\n", 4,
        "expected 'mat 1' header, got 'mat'"),
    "missing-block": ("matrices", "2 2\nmat 0\n0 0 1\n", 3,
        "unexpected end of input, expected 'mat 1' header"),
    "trailing-content": ("matrices", _M + "0 0 1\nextra stuff\n", 4,
        "unexpected trailing content 'extra stuff'"),
    "entry-error-before-header-error": ("matrices", "2 2\nmat 0\n0 0 nan\nmat 5\n", 3,
        "non-finite entry value 'nan'"),
    "duplicate-before-end-of-input": ("matrices", "2 2\nmat 0\n0 1 1\n1 0 2\n", 4,
        "asymmetric duplicate entry at (0, 1)"),
    "blank-and-comment-lines-count": (
        "matrices", "# head\n2 1\n\nmat 0\n# c\n\n0 0 1\n  \n0 3 1\n", 9,
        "entry (0, 3) out of range for n = 2",
    ),
    "error-in-second-block": ("matrices", "2 2\nmat 0\n0 0 1\nmat 1\n1 1 1\n1 1 2\n", 6,
        "asymmetric duplicate entry at (1, 1)"),
    "sdp-bad-target": ("sdp", _SDP + "targets\n0 0 1\ncost 1 1\nfeasible 1 1\n", 6,
        "expected 'target', got 'targets'"),
    "sdp-target-entry": ("sdp", _SDP + "target\n0 0 inf\ncost 1 1\nfeasible 1 1\n", 7,
        "non-finite entry value 'inf'"),
    "sdp-cost-count": ("sdp", _SDP + "target\n0 0 1\ncost 1\nfeasible 1 1\n", 8,
        "expected 'cost' with 2 values"),
    "sdp-cost-value": ("sdp", _SDP + "target\n0 0 1\ncost 1 x\nfeasible 1 1\n", 8, "bad cost 'x'"),
    "sdp-missing-cost": ("sdp", _SDP + "target\n0 0 1\nfeasible 1 1\n", 8,
        "expected 'cost' with 2 values"),
    "sdp-feasible-value": ("sdp", _SDP + "target\n0 0 1\ncost 1 1\nfeasible 1 nan\n", 9,
        "non-finite feasible value 'nan'"),
    "sdp-feasible-count": ("sdp", _SDP + "target\n0 0 1\ncost 1 1\nfeasible 1 1 1\n", 9,
        "expected 'feasible' with 2 values"),
    "sdp-end-of-input": ("sdp", _SDP + "target\n0 0 1\ncost 1 1\n", 8,
        "unexpected end of input, expected 'feasible ...' line"),
    "simplex-lambda-count": ("simplex", "simplex 2 2\nlambda 0.5\nmat 0\n0 0 1\n", 2,
        "expected 'lambda' with 2 values"),
    "simplex-lambda-value": ("simplex", "simplex 2 2\nlambda 0.5 abc\nmat 0\n0 0 1\n", 2,
        "bad lambda value 'abc'"),
    "simplex-missing-lambda": ("simplex", "simplex 2 2\nmat 0\n0 0 1\n", 2,
        "expected 'lambda' with 2 values"),
    "simplex-entry": ("simplex", _SPX + "mat 1\n1 1 1\n1 7 1\n", 7,
        "entry (1, 7) out of range for n = 2"),
    "simplex-missing-block": ("simplex", _SPX, 4,
        "unexpected end of input, expected 'mat 1' header"),
    # a stack numpy refuses before it allocates anything
    "huge-dimension": ("matrices", f"{10**20} 1\nmat 0\n", 1,
        f"cannot allocate 1 matrices of dimension {10**20}"),
    "huge-dimension-after-comments": ("matrices", f"# c\n\n{10**20} 1\nmat 0\n0 0 1\n", 3,
        f"cannot allocate 1 matrices of dimension {10**20}"),
    "sdp-huge-dimension": ("sdp", f"sdp {10**20} 1\nmat 0\ntarget\ncost 1\nfeasible 1\n", 1,
        f"cannot allocate 2 matrices of dimension {10**20}"),
}


# a comment line inside the first block; the second block has an off-diagonal entry
_SEPARATED = "2 2\nmat 0\n0 0 1\n# c\n1 1 2\nmat 1\n0 1 0.5\n0 0 1\n1 1 1\n"
_SEPARATORS = ["\r\n", "\r", "\f", "\v", "\x85", "\u2028"]


@pytest.fixture(params=["bulk", "scan"])
def reader(request, monkeypatch):
    """Read mat blocks with loadtxt, or with the line scan alone (as where loadtxt reads 1.0)."""
    if request.param == "scan":
        monkeypatch.setattr(io_formats, "_BULK", False)
    return request.param


class TestMatBlockErrors:
    """A malformed mat block raises ParseError naming its first offending line."""

    @pytest.mark.parametrize("case", list(_MAT_BLOCK_ERRORS), ids=list(_MAT_BLOCK_ERRORS))
    def test_first_offending_line(self, reader, case):
        kind, text, line, message = _MAT_BLOCK_ERRORS[case]
        with pytest.raises(ParseError) as err:
            _PARSE[kind](text)
        assert err.value.line_no == line
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "text, expected",
        [
            (_M + "+1 +1 1\n0 0 1\n", [[[1.0, 0.0], [0.0, 1.0]]]),
            (_M + "0 1 0.5\n1 0 0.5\n0 0 1\n1 1 1\n", [[[1.0, 0.5], [0.5, 1.0]]]),
            ("2 2\nmat 0\nmat 1\n1 1 1\n", [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
            (_M + "  0 0 1\n\t1 1 1\n", [[[1.0, 0.0], [0.0, 1.0]]]),
        ],
        ids=["plus-signed-index", "equal-duplicate", "empty-block", "indented-entries"],
    )
    def test_accepted(self, reader, text, expected):
        assert [m.tolist() for m in parse_matrix_collection(text).matrices] == expected

    @pytest.mark.parametrize(
        "sep", _SEPARATORS, ids=["crlf", "cr", "ff", "vt", "nel", "line-separator"]
    )
    def test_line_separators(self, reader, sep):
        """Every line break that str.splitlines knows counts one line, as \\n does."""
        plain = parse_matrix_collection(_SEPARATED)
        again = parse_matrix_collection(_SEPARATED.replace("\n", sep))
        assert [m.tobytes() for m in again.matrices] == [m.tobytes() for m in plain.matrices]
        with pytest.raises(ParseError) as err:
            parse_matrix_collection(_SEPARATED.replace("0 1 0.5", "0 5 0.5").replace("\n", sep))
        assert str(err.value) == "line 7: entry (0, 5) out of range for n = 2"

    def test_equal_duplicate_keeps_the_last_zero_sign(self):
        coll = parse_matrix_collection(_M + "0 0 1\n0 1 0.0\n1 0 -0.0\n1 1 1\n")
        assert np.signbit(coll.matrices[0][0, 1]) and np.signbit(coll.matrices[0][1, 0])

    def test_third_member_not_psd(self):
        good = "0 0 1\n1 1 1\n"
        text = f"2 4\nmat 0\n{good}mat 1\n{good}mat 2\n0 0 1\n0 1 2\n1 1 1\nmat 3\n{good}"
        with pytest.raises(NotPsd, match="matrix 2 "):
            parse_matrix_collection(text)

    def test_stacked_validation_names_the_first_failure(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        mats = [np.eye(2), np.eye(2), indefinite, -np.eye(2)]
        with pytest.raises(NotPsd, match="matrix 2 "):
            PsdCollection.from_matrices(mats)
        # a non-finite member only wins when no member before it fails
        with pytest.raises(NotPsd, match="matrix 2 "):
            PsdCollection.from_matrices(mats[:3] + [np.full((2, 2), np.inf)])
        with pytest.raises(InvalidMatrix):
            PsdCollection.from_matrices([np.eye(2), np.full((2, 2), np.nan), indefinite])

    def test_entries_near_the_overflow_threshold_are_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coll = parse_matrix_collection("2 1\nmat 0\n0 0 1e308\n0 1 -1e308\n1 1 1.5e308\n")
        want = np.array([[1e308, -1e308], [-1e308, 1.5e308]])
        assert coll.matrices[0].tobytes() == want.tobytes()

    def test_members_share_one_stack(self):
        coll = parse_matrix_collection("2 2\nmat 0\n0 0 1\nmat 1\n1 1 1\n")
        assert coll.matrices[0].base is coll.matrices[1].base is not None


_FILLER = ["", "   ", "\t", "# note", "  # indented note", "#"]


@st.composite
def _collections(draw):
    """Diagonally dominant (so PSD) members with signed entries of mixed exponent."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    mats = []
    for _ in range(m):
        values = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-12, 13, (n, n))
        off = np.triu(np.where(rng.random((n, n)) < density, values, 0.0), 1)
        off = off + off.T
        extra = np.where(rng.random(n) < density, np.abs(values.diagonal()), 0.0)
        mats.append(off + np.diag(np.abs(off).sum(axis=1) * 2.0 + extra))
    return PsdCollection.from_matrices(mats, validate=False)


class TestMatrixRoundTrip:
    @given(_collections(), st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(_FILLER))))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(self, coll, filler):
        text = emit_matrix_collection(coll)
        lines = text.splitlines()
        for position, line in filler:
            lines.insert(position % (len(lines) + 1), line)
        padded = "\n".join(lines)
        with mock.patch.object(io_formats, "_BULK", False):
            scanned = parse_matrix_collection(padded)
        for again in (parse_matrix_collection(text), parse_matrix_collection(padded), scanned):
            assert (again.dim, len(again)) == (coll.dim, len(coll))
            for a, b in zip(coll.matrices, again.matrices):
                assert a.tobytes() == b.tobytes()


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


def _reference_emit(coll: PsdCollection) -> str:
    """The writer entry by entry: the reference for the block-wise one."""
    lines = [f"{coll.dim} {len(coll)}"]
    for k, mat in enumerate(coll.matrices):
        lines.append(f"mat {k}")
        lines.extend(_entry_lines(mat))
    return "\n".join(lines) + "\n"


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300, np.nan]


@st.composite
def _raw_collections(draw):
    """Symmetric members, not checked for PSD, with zeros of both signs, subnormals and NaN."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    scaled = st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=-300, max_value=300),
    )
    entry = st.one_of(st.sampled_from(_SPECIAL), scaled)
    mats = []
    for _ in range(m):
        upper = np.zeros((n, n))
        if not draw(st.booleans()):  # else an all-zero member
            for i in range(n):
                for j in range(i, n):
                    upper[i, j] = draw(entry)
        mats.append(np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T))  # keeps -0.0
    return PsdCollection.from_matrices(mats, validate=False)


class TestMatrixWriter:
    @given(_raw_collections())
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_the_entry_by_entry_writer(self, coll):
        assert emit_matrix_collection(coll) == _reference_emit(coll)

    def test_peak_memory(self):
        """Writing and reading hold little more than the text: no list of every line."""
        coll = random_psd_collection(30, 60, seed=1)
        emit_peak, text = _traced_peak(emit_matrix_collection, coll)
        parse_peak, _ = _traced_peak(parse_matrix_collection, text)
        assert emit_peak <= 3.5 * len(text)
        assert parse_peak <= 1.5 * len(text)


def _traced_peak(call, arg):
    """The tracemalloc peak of ``call(arg)`` in bytes, and its result."""
    tracemalloc.start()
    try:
        result = call(arg)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestGraphFormat:
    def test_single_edge(self):
        g = parse_graph("2\n1 2 3.0\n")
        assert g.n == 2 and g.edges == [(1, 2, 3.0)]

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph("2\n1 3 1.0\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3\n1 2 1.0\n2 1 2.0\n")

    @pytest.mark.parametrize("header", ["0", "-4"])
    def test_vertex_count_must_be_positive(self, header):
        with pytest.raises(ParseError, match="line 2: vertex count must be positive, got "):
            parse_graph(f"# comment\n{header}\n")

    def test_roundtrip(self):
        g = complete_graph(4)
        assert parse_graph(emit_graph(g)) == g
        assert emit_graph(parse_graph(emit_graph(g))) == emit_graph(g)


class TestHypergraphFormat:
    def test_single_triple(self):
        h = parse_hypergraph("3\n3 1 2 3 1.0\n")
        assert h.n == 3 and h.hyperedges == [((1, 2, 3), 1.0)]

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3\n3 1 2 4 1.0\n")

    @pytest.mark.parametrize("header", ["0", "-3"])
    def test_vertex_count_must_be_positive(self, header):
        with pytest.raises(ParseError, match="line 1: vertex count must be positive, got "):
            parse_hypergraph(f"{header}\n3 1 2 3 1.0\n")

    def test_roundtrip(self):
        h = parse_hypergraph("5\n3 1 2 3 1.5\n2 4 5 0.25\n")
        assert parse_hypergraph(emit_hypergraph(h)) == h


class TestCostAndFamilyFormats:
    def test_costs(self):
        costs = parse_costs("2 3\n1 0 2\n0.5 0.5 0.5\n")
        assert len(costs) == 2
        np.testing.assert_allclose(costs[0], [1.0, 0.0, 2.0])
        assert parse_costs(emit_costs(costs))[1].tolist() == costs[1].tolist()

    def test_costs_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_costs("1 3\n1 0\n")

    @pytest.mark.parametrize("header,what", [("-1 2", "cost count"), ("1 -2", "edge count")])
    def test_costs_counts_must_be_nonnegative(self, header, what):
        with pytest.raises(ParseError, match=f"line 1: {what} must be nonnegative, got -"):
            parse_costs(f"{header}\n")
        assert parse_costs("0 2\n") == []

    def test_family(self):
        family = parse_family("2\n1\n1 2\n2\n2 3\n3 4\n")
        assert family == [[(1, 2)], [(2, 3), (3, 4)]]

    def test_family_counts_must_be_nonnegative(self):
        with pytest.raises(ParseError, match="line 1: member count must be nonnegative, got -2"):
            parse_family("-2\n")
        with pytest.raises(ParseError, match="line 4: edge count must be nonnegative, got -1"):
            parse_family("2\n1\n1 2\n-1\n")
        assert parse_family("0\n") == []


class TestSdpAndSimplexFormats:
    def test_sdp(self):
        text = (
            "sdp 2 2\n"
            "mat 0\n0 0 1.0\n"
            "mat 1\n1 1 1.0\n"
            "target\n0 0 0.5\n1 1 0.5\n"
            "cost 1.0 2.0\n"
            "feasible 1.0 1.0\n"
        )
        inst = parse_sdp(text)
        np.testing.assert_allclose(inst.target, 0.5 * np.eye(2))
        np.testing.assert_allclose(inst.cost, [1.0, 2.0])

    def test_simplex(self):
        lam, coll = parse_simplex(
            "simplex 2 2\nlambda 0.25 0.75\nmat 0\n0 0 1.0\n1 1 1.0\nmat 1\n0 0 2.0\n1 1 2.0\n"
        )
        np.testing.assert_allclose(lam, [0.25, 0.75])
        assert len(coll) == 2

    @pytest.mark.parametrize(
        "parse,text",
        [
            (parse_sdp, "sdp 0 1\nmat 0\ntarget\ncost 1\nfeasible 1\n"),
            (parse_sdp, "sdp -1 1\nmat 0\ntarget\ncost 1\nfeasible 1\n"),
            (parse_sdp, "sdp 2 0\ntarget\n0 0 1\ncost\nfeasible\n"),
            (parse_simplex, "simplex 0 1\nlambda 1\nmat 0\n"),
            (parse_simplex, "simplex -2 1\nlambda 1\nmat 0\n"),
            (parse_simplex, "simplex 2 0\nlambda\n"),
        ],
    )
    def test_nonpositive_sizes_rejected(self, parse, text):
        with pytest.raises(ParseError, match="n and m must be positive") as err:
            parse(text)
        assert err.value.line_no == 1


@pytest.fixture
def identity_pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("2 2\nmat 0\n0 0 1\nmat 1\n1 1 1\n")
    return path


class TestCli:
    def run_cli(self, tmp_path, *extra):
        out = tmp_path / "out.txt"
        code = cli.main([*extra, "--output", str(out)])
        return code, out.read_text() if out.exists() else ""

    def test_bss_identity_pair(self, tmp_path, identity_pair_file):
        code, text = self.run_cli(
            tmp_path, "--algo", "bss", "--eps", "0.5", "--input", str(identity_pair_file)
        )
        assert code == 0
        weight_lines = text.split("weights\n")[1].split("certificate\n")[0].strip().splitlines()
        assert 0 < len(weight_lines) <= 32
        assert "passed true" in text

    @pytest.mark.parametrize("algo", ["bss", "mmwum-wf", "mmwum-block", "aw-sample", "pe"])
    def test_every_algorithm_runs(self, tmp_path, identity_pair_file, algo):
        code, text = self.run_cli(
            tmp_path, "--algo", algo, "--eps", "0.45", "--input", str(identity_pair_file)
        )
        assert code == 0
        assert f"algorithm {algo}" in text
        assert "passed true" in text

    def test_plain_graph_kind(self, tmp_path):
        from psdsparsify.io_formats import emit_graph

        graph_file = tmp_path / "g.txt"
        graph_file.write_text(emit_graph(complete_graph(5)))
        code, text = self.run_cli(
            tmp_path,
            "--algo", "bss", "--eps", "0.5",
            "--kind", "graph",
            "--input", str(graph_file),
        )
        assert code == 0
        assert "input rank 4" in text
        assert "param internal_epsilon" in text

    def test_byte_identical_reruns(self, tmp_path, identity_pair_file):
        _, first = self.run_cli(
            tmp_path, "--algo", "mmwum-wf", "--eps", "0.5", "--input", str(identity_pair_file)
        )
        _, second = self.run_cli(
            tmp_path, "--algo", "mmwum-wf", "--eps", "0.5", "--input", str(identity_pair_file)
        )
        assert first == second

    def test_pe_reports_deterministic(self, tmp_path, identity_pair_file):
        code, text = self.run_cli(
            tmp_path, "--algo", "pe", "--eps", "0.45", "--input", str(identity_pair_file)
        )
        assert code == 0
        assert "deterministic: true" in text
        assert "passed true" in text

    def test_aw_reports_nondeterministic_flag(self, tmp_path, identity_pair_file):
        code, text = self.run_cli(
            tmp_path,
            "--algo", "aw-sample", "--eps", "0.4",
            "--seed", "3",
            "--input", str(identity_pair_file),
        )
        assert "deterministic: false" in text
        assert code in (0, 1)

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0 1.0\n")
        code, _ = self.run_cli(tmp_path, "--algo", "bss", "--eps", "0.5", "--input", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "kind,text",
        [
            ("simplex", "simplex 0 1\nlambda 1\nmat 0\n"),
            ("sdp", "sdp 0 1\nmat 0\ntarget\ncost 1\nfeasible 1\n"),
            ("sdp", "sdp 2 0\ntarget\n0 0 1\ncost\nfeasible\n"),
        ],
    )
    def test_nonpositive_sizes_exit_2(self, tmp_path, capsys, kind, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, _ = self.run_cli(
            tmp_path, "--algo", "bss", "--eps", "0.5", "--kind", kind, "--input", str(bad)
        )
        assert code == 2
        assert "n and m must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algo,status",
        [("bss", 0), ("mmwum-wf", 0), ("mmwum-block", 0), ("aw-sample", 0), ("pe", 2)],
    )
    def test_entry_near_the_overflow_threshold(self, tmp_path, capsys, algo, status):
        inp = tmp_path / "big.txt"
        inp.write_text("1 1\nmat 0\n0 0 1e308\n")
        code, text = self.run_cli(tmp_path, "--algo", algo, "--eps", "0.5", "--input", str(inp))
        assert code == status
        if status == 0:
            assert "passed true" in text
        else:  # whitened rank 1
            assert "derandomization needs rank at least 2" in capsys.readouterr().err

    def test_huge_dimension_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "huge.txt"
        inp.write_text(f"{10**20} 1\nmat 0\n")
        code, _ = self.run_cli(tmp_path, "--algo", "bss", "--eps", "0.5", "--input", str(inp))
        assert code == 2
        assert "line 1: cannot allocate" in capsys.readouterr().err

    def test_bad_epsilon_exit_code(self, tmp_path, identity_pair_file):
        code, _ = self.run_cli(
            tmp_path, "--algo", "bss", "--eps", "1.2", "--input", str(identity_pair_file)
        )
        assert code == 2

    def test_failed_certificate_exit_code(self, tmp_path):
        # seed 6 lands outside the [0.5, 1.5] window on this instance
        lines = ["10 10"]
        for i in range(10):
            lines += [f"mat {i}", f"{i} {i} 1.0"]
        inp = tmp_path / "ident10.txt"
        inp.write_text("\n".join(lines) + "\n")
        code, text = self.run_cli(
            tmp_path,
            "--algo", "aw-sample", "--eps", "0.5",
            "--seed", "6",
            "--input", str(inp),
        )
        assert code == 1
        assert "passed false" in text

    def test_zero_lambda_min_is_reported_not_raised(self, tmp_path, identity_pair_file):
        # every one of the 24 draws of this seed picks member 0, so lambda_min is 0
        code, text = self.run_cli(
            tmp_path,
            "--algo", "aw-sample", "--eps", "0.5",
            "--seed", "7362769",
            "--input", str(identity_pair_file),
        )
        assert code == 1
        assert "lambda_min 0.0000000000000000e+00" in text
        assert "epsilon_achieved inf" in text
        assert "passed false" in text

    def test_graph_kind_with_costs(self, tmp_path):
        from psdsparsify.io_formats import emit_graph

        g = complete_graph(4)
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(emit_graph(g))
        costs_file = tmp_path / "c.txt"
        costs_file.write_text("1 6\n1 1 1 1 1 1\n")
        code, text = self.run_cli(
            tmp_path,
            "--algo", "bss", "--eps", "0.5",
            "--kind", "graph",
            "--input", str(graph_file),
            "--costs", str(costs_file),
        )
        assert code == 0
        assert "cost 0 original" in text

    def test_sdp_kind(self, tmp_path):
        sdp_file = tmp_path / "inst.txt"
        sdp_file.write_text(
            "sdp 2 3\n"
            "mat 0\n0 0 1.0\n"
            "mat 1\n1 1 1.0\n"
            "mat 2\n0 0 0.5\n1 1 0.5\n"
            "target\n0 0 0.5\n1 1 0.5\n"
            "cost 1.0 2.0 0.5\n"
            "feasible 1.0 1.0 1.0\n"
        )
        code, text = self.run_cli(
            tmp_path, "--algo", "bss", "--eps", "0.5", "--kind", "sdp", "--input", str(sdp_file)
        )
        assert code == 0
        assert "objective original" in text
        assert "feasible true" in text

    def test_sdp_entry_near_the_overflow_threshold(self, tmp_path):
        # the parser mirrors the entry; nothing computes 1e308 + 1e308
        sdp_file = tmp_path / "inst.txt"
        sdp_file.write_text("sdp 1 1\nmat 0\n0 0 1e308\ntarget\n0 0 1\ncost 1\nfeasible 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = self.run_cli(
                tmp_path, "--algo", "bss", "--eps", "0.5", "--kind", "sdp", "--input", str(sdp_file)
            )
        assert code == 0
        assert "passed true" in text

    def test_simplex_kind(self, tmp_path):
        simplex_file = tmp_path / "simplex.txt"
        simplex_file.write_text(
            "simplex 2 2\nlambda 0.5 0.5\nmat 0\n0 0 1.0\n1 1 1.0\nmat 1\n0 0 2.0\n1 1 2.0\n"
        )
        code, text = self.run_cli(
            tmp_path,
            "--algo", "bss", "--eps", "0.5",
            "--kind", "simplex",
            "--input", str(simplex_file),
        )
        assert code == 0
        assert "simplex_sum 1.0" in text

    def test_family_kind(self, tmp_path):
        from psdsparsify.io_formats import emit_graph

        g = complete_graph(4)
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(emit_graph(g))
        family_file = tmp_path / "f.txt"
        family_file.write_text("1\n3\n1 2\n2 3\n1 3\n")
        code, text = self.run_cli(
            tmp_path,
            "--algo", "bss", "--eps", "0.5",
            "--kind", "graph",
            "--input", str(graph_file),
            "--family", str(family_file),
        )
        assert code == 0
        assert "member 0 lambda_min" in text

    @pytest.mark.parametrize(
        "family, want_code",
        [("2\n1\n1 2\n0\n", 2), ("0\n", 0)],
        ids=["empty-member", "no-members"],
    )
    def test_family_members_need_edges(self, tmp_path, capsys, family, want_code):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(emit_graph(complete_graph(4)))
        family_file = tmp_path / "f.txt"
        family_file.write_text(family)
        code, _ = self.run_cli(
            tmp_path,
            "--algo", "bss", "--eps", "0.5",
            "--kind", "graph",
            "--input", str(graph_file),
            "--family", str(family_file),
        )
        assert code == want_code
        err = capsys.readouterr().err
        assert ("family member 1 has no edges" in err) == (want_code == 2)

    def test_runs_outside_the_main_thread(self, tmp_path, identity_pair_file):
        out = tmp_path / "out.txt"
        argv = ["--algo", "bss", "--eps", "0.5", "--input", str(identity_pair_file),
                "--output", str(out)]
        codes = []
        worker = threading.Thread(target=lambda: codes.append(cli.main(argv)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert codes == [0]
        assert "passed true" in out.read_text()

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("matrices", emit_matrix_collection(identity_decomposition(4))),
            ("graph", emit_graph(complete_graph(5))),
        ],
        ids=["matrices", "graph"],
    )
    def test_budget_below_a_second_stops_pe(self, tmp_path, monkeypatch, kind, text):
        inp = tmp_path / "in.txt"
        inp.write_text(text)
        monkeypatch.setenv("SPARSIFY_MAX_MINUTES", "1e-6")
        code, _ = self.run_cli(
            tmp_path, "--algo", "pe", "--eps", "0.5", "--kind", kind, "--input", str(inp)
        )
        assert code == 2

    def test_nan_budget_exits_2(self, tmp_path, monkeypatch, identity_pair_file):
        monkeypatch.setenv("SPARSIFY_MAX_MINUTES", "nan")
        code, text = self.run_cli(
            tmp_path, "--algo", "pe", "--eps", "0.45", "--input", str(identity_pair_file)
        )
        assert code == 2
        assert text == ""

    def test_budget_values(self):
        config = cli.AlgorithmConfig
        assert config("bss", 0.5, max_minutes=0.5).max_seconds == 30.0
        assert config("bss", 0.5, max_minutes=0.0).max_seconds is None
        assert config("bss", 0.5, max_minutes=-1.0).max_seconds is None
        with pytest.raises(ValueError, match="nan"):
            config("bss", 0.5, max_minutes=float("nan"))

    def test_pe_retry_reports_the_budget_it_used(self, tmp_path):
        # the closed-form T = 57 misses phi_0 + psi_0 < 1 here, so the run
        # retries with the calibrated budget the exception suggests
        inp = tmp_path / "id4.txt"
        inp.write_text(emit_matrix_collection(identity_decomposition(4)))
        code, text = self.run_cli(tmp_path, "--algo", "pe", "--eps", "0.45", "--input", str(inp))
        assert code == 0
        lines = text.splitlines()
        assert "param T 57" in lines
        assert "t_used 67" in lines


class TestRunReportInvariant:
    @pytest.mark.parametrize("algo", ["bss", "mmwum-wf", "mmwum-block", "aw-sample", "pe"])
    def test_param_dump_rederives(self, algo):
        eps, rank = 0.37, 7
        first = cli.param_dump(algo, eps, rank)
        second = cli.param_dump(algo, eps, rank)
        assert first == second
        for _, value in first:
            assert value == value  # no NaN sneaks in

    # the schedules are the scanning solvers' potentials as well, so a field
    # added to one of them would add a ``param`` line to every output
    @pytest.mark.parametrize(
        "algo,names",
        [
            ("bss", ["delta_L", "eps_L", "ell_0", "delta_U", "eps_U", "u_0", "T"]),
            ("mmwum-wf", ["eta", "delta_U", "delta_L", "T", "gamma"]),
            ("mmwum-block", ["beta", "eta", "ell", "rho", "T"]),
            ("aw-sample", ["mu", "T"]),
            ("pe", ["mu", "T", "t_lower", "t_upper"]),
        ],
    )
    def test_param_names_are_pinned(self, algo, names):
        assert [name for name, _ in cli.param_dump(algo, 0.37, 7)] == names

    def test_emitted_params_match_rederived_schedule(self, identity_pair_file):
        # the printed schedule must be bit-identical to a fresh derivation
        from psdsparsify.bss import BssParams
        from psdsparsify.io_formats import parse_matrix_collection

        coll = parse_matrix_collection(identity_pair_file.read_text())
        config = cli.AlgorithmConfig(algorithm="bss", epsilon=0.5)
        text = cli.emit(cli.run(config, coll))
        printed = {}
        for line in text.splitlines():
            if line.startswith("param "):
                _, name, value = line.split()
                printed[name] = value
        p = BssParams.from_epsilon(0.5, 2)
        assert printed["delta_U"] == f"{p.delta_U:.16e}"
        assert printed["eps_U"] == f"{p.eps_U:.16e}"
        assert printed["ell_0"] == f"{p.ell_0:.16e}"
        assert printed["u_0"] == f"{p.u_0:.16e}"
        assert printed["T"] == str(p.T)

    def test_emit_excludes_wall_time(self, identity_pair_file):
        from psdsparsify.io_formats import parse_matrix_collection

        coll = parse_matrix_collection(identity_pair_file.read_text())
        config = cli.AlgorithmConfig(algorithm="bss", epsilon=0.5)
        report = cli.run(config, coll)
        assert report.wall_time_s >= 0.0
        assert "wall" not in cli.emit(report)
