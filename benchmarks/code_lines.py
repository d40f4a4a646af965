"""Count code lines: non-blank, non-comment, non-docstring.

Usage::

    python benchmarks/code_lines.py src/repro src/repro/runtime/backends

Prints one ``<lines> <path>`` row per argument. A directory counts
every ``*.py`` file under it. A line counts when it holds at least one
token that is not a comment, a newline or part of a docstring (the
string expression that opens a module, class or function body). This
is the rule every line budget in ``ROADMAP.md`` is stated in.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
         tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
         tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring of ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            doc = body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines in one module's source text."""
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                    if line not in docs)
    return len(code)


def count_path(path: Path) -> int:
    """Code lines in a ``.py`` file, or in every one under a
    directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(count_source(f.read_text(encoding="utf-8"))
               for f in files)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("paths", nargs="+", type=Path)
    args = p.parse_args(argv)
    for path in args.paths:
        if not path.exists():
            p.error(f"no such path: {path}")
        print(f"{count_path(path)} {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
