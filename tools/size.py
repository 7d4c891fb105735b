"""Print the size of the ``orelab`` package: the line count of each module,
as ``wc -l src/orelab/*.py`` gives it, and the split of the total into
docstring, code, comment and blank lines.

    python tools/size.py

A docstring line is a line inside the first statement of a module, class or
function when that statement is a string. Of the other lines, one with only
whitespace is blank, one whose first non-space character is ``#`` is a
comment, and the rest are code.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orelab"


def split(text: str) -> dict[str, int]:
    """The docstring, code, comment and blank line counts of one module."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = {"docstrings": len(doc), "code": 0, "comments": 0, "blank": 0}
    for number, line in enumerate(text.splitlines(), 1):
        if number in doc:
            continue
        stripped = line.strip()
        kind = "blank" if not stripped else "comments" if stripped.startswith("#") else "code"
        counts[kind] += 1
    return counts


def main() -> None:
    total = {"docstrings": 0, "code": 0, "comments": 0, "blank": 0}
    lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        count = text.count("\n")  # what wc -l counts
        lines += count
        print(f"{count:>7} {path.relative_to(PACKAGE.parent.parent)}")
        for kind, value in split(text).items():
            total[kind] += value
    print(f"{lines:>7} total")
    parts = " + ".join(f"{value:,} {kind}" for kind, value in total.items())
    print(f"{sum(total.values()):,} = {parts}")


if __name__ == "__main__":
    main()
