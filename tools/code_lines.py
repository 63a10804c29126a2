"""Print the size of ``src/deauthsim``: ``wc -l`` lines and AST code lines.

Two total lines come first, then one ``name: wc -l / AST`` line per
module, so a change's log shows which module its lines moved in.

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
    sizes = {}
    for path in sorted(ROOT.glob("*.py")):
        text = path.read_text()
        sizes[path.name] = (text.count("\n"), code_lines(text))
    print(f"wc -l lines: {sum(newlines for newlines, _ in sizes.values())}")
    print(f"AST code lines: {sum(code for _, code in sizes.values())}")
    for name, (newlines, code) in sizes.items():
        print(f"  {name}: {newlines} / {code}")


if __name__ == "__main__":
    main()
