"""Print the line count of the lgnsde package: every line of its .py files,
then the same count without the lines of module, class and function
docstrings (found with ``ast``; comments and blank lines are counted).

    python tools/src_lines.py [package-dir]

The directory defaults to ``src/lgnsde`` beside this script. Output is two
lines, ``total <n>`` and ``without_docstrings <n>``.
"""

import ast
import sys
from pathlib import Path

DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The number of lines that docstrings span in `source`."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            count += doc.end_lineno - doc.lineno + 1
    return count


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "lgnsde"
    sources = [p.read_text() for p in sorted(package.glob("*.py"))]
    if not sources:
        sys.exit(f"no .py files in {package}")
    total = sum(len(s.splitlines()) for s in sources)
    print(f"total {total}")
    print(f"without_docstrings {total - sum(map(docstring_lines, sources))}")


if __name__ == "__main__":
    main(sys.argv[1:])
