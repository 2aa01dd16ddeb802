"""Line counts of the package source: lines, code, docstring, comment, blank.

A line is docstring if it lies in the span of a module, class or function
docstring (as ``ast`` finds them), else blank if it holds only whitespace,
else comment if it holds only a comment, else code.  One row per file under
``src/``, then the total.  Standard library only; run from anywhere:

    python3 tools/src_size.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import pathlib
import sys

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(path: pathlib.Path) -> dict[str, int]:
    """The lines of one file, and of each kind."""
    text = path.read_text()
    docs = _docstring_lines(ast.parse(text))
    tally = dict.fromkeys(("lines",) + KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        tally[kind] += 1
        tally["lines"] += 1
    return tally


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(__file__).parent.parent / "src"
    total = dict.fromkeys(("lines",) + KINDS, 0)
    width = 40
    print(f"{'file':<{width}}" + "".join(f"{k:>11}" for k in total))
    for path in sorted(root.rglob("*.py")):
        tally = counts(path)
        for key, value in tally.items():
            total[key] += value
        name = str(path.relative_to(root))
        print(f"{name:<{width}}" + "".join(f"{v:>11,}" for v in tally.values()))
    print(f"{'total':<{width}}" + "".join(f"{v:>11,}" for v in total.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
