"""Line counts of the library: code, docstring, comment and blank lines per
Python file under ``src/``, and in total.

A line of a module, class or function docstring is a docstring line, blank
ones included; a line holding only a comment is a comment line; any other
empty line is blank; every other line is code.

    python3 tools/src_lines.py          # the src/ beside this script
    python3 tools/src_lines.py PATH     # another tree, e.g. an older checkout's src/
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def classify(source: str) -> dict:
    """The count of each of ``KINDS`` among the lines of ``source``."""
    kind = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            kind.update(dict.fromkeys(range(doc.lineno, doc.end_lineno + 1), "docstring"))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.line.lstrip().startswith("#"):
            kind.setdefault(tok.start[0], "comment")
    counts = dict.fromkeys(KINDS, 0)
    for lineno, line in enumerate(source.splitlines(), start=1):
        counts[kind.get(lineno, "code" if line.strip() else "blank")] += 1
    return counts


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(path.relative_to(root)), classify(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", {k: sum(counts[k] for _, counts in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}  {'lines':>6}" + "".join(f"  {k:>9}" for k in KINDS))
    for name, counts in rows:
        print(f"{name:<{width}}  {sum(counts.values()):>6}" + "".join(f"  {counts[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
