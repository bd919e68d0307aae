"""The examples in README.md run as written."""

import re
from pathlib import Path

import pytest

from psdsparsify import io_formats

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# section name (the first word of its leading comment) -> its parser
PARSERS = {
    "matrices": io_formats.parse_matrix_collection,
    "graph": io_formats.parse_graph,
    "hypergraph": io_formats.parse_hypergraph,
    "costs": io_formats.parse_costs,
    "family": io_formats.parse_family,
    "sdp": io_formats.parse_sdp,
    "simplex": io_formats.parse_simplex,
}


def _block_after(heading: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` after ``heading``."""
    start = README.index(heading)
    match = re.compile(re.escape(fence) + r"\n(.*?)```", re.DOTALL).search(README, start)
    return match.group(1)


def _format_sections() -> dict:
    """name -> text of every blank-line-separated section of the input-format block."""
    sections = _block_after("Input formats", "```").strip().split("\n\n")
    return {re.match(r"# (\w+)", text).group(1): text for text in sections}


def test_library_use_runs_as_written(capsys):
    namespace = {}
    exec(compile(_block_after("## Library use", "```python"), "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    assert namespace["result"].certificate.passes(0.5)
    assert len(namespace["raw"].weights) == 2


def test_every_input_format_has_an_example():
    assert sorted(_format_sections()) == sorted(PARSERS)


@pytest.mark.parametrize("name", list(PARSERS))
def test_input_format_example_parses(name):
    # each section opens with a '#' comment, which every parser skips
    assert PARSERS[name](_format_sections()[name] + "\n")
