"""Tests of the repository's tools: ``tools/src_lines.py``, the line counter
that reports the library's size."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring.

Its second paragraph, after a blank line."""

# a full-line comment
x = 1  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,

        over three lines."""
        # an indented full-line comment
        return x
'''


def test_classify_splits_docstring_comment_code_and_blank_lines():
    counts = src_lines.classify(SOURCE)
    # docstring: lines 1-3 (the blank line 2 too), 10 and 13-15; comment: 5
    # and 16; code: 6 (its trailing comment does not count), 9, 12 and 17
    assert counts == {"code": 4, "docstring": 7, "comment": 2, "blank": 4}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_main_prints_each_file_with_its_line_count(capsys):
    root = ROOT / "src"
    assert src_lines.main([str(root)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["file", "lines", *src_lines.KINDS]
    table = {name: [int(c) for c in cells] for name, *cells in (row.split() for row in rows)}
    files = {str(path.relative_to(root)): path for path in root.rglob("*.py")}
    assert set(table) == set(files) | {"total"}
    for name, path in files.items():
        lines, *kinds = table[name]
        assert lines == sum(kinds) == len(path.read_text(encoding="utf-8").splitlines())
    assert table["total"] == [sum(cells[i] for name, cells in table.items() if name != "total")
                              for i in range(len(src_lines.KINDS) + 1)]
