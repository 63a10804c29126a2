"""Print the size of ``src/deauthsim``: ``wc -l`` lines and AST code lines.

A line is a code line when some AST node spans it, it is not part of a
docstring, and it is neither blank nor a comment.  Standard library only.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "deauthsim"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Count the lines of ``source`` that hold code, not docstrings or comments."""
    tree = ast.parse(source)
    spanned: set[int] = set()
    for node in ast.walk(tree):
        if getattr(node, "end_lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
    spanned -= _docstring_lines(tree)
    text = source.splitlines()
    return sum(
        1
        for n in spanned
        if text[n - 1].strip() and not text[n - 1].lstrip().startswith("#")
    )


def main() -> None:
    texts = [path.read_text() for path in sorted(ROOT.glob("*.py"))]
    newlines = sum(text.count("\n") for text in texts)
    print(f"wc -l lines: {newlines}")
    print(f"AST code lines: {sum(code_lines(text) for text in texts)}")


if __name__ == "__main__":
    main()
