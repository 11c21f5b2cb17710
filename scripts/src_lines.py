#!/usr/bin/env python3
"""Count the lines of a checkout's ``src/tftlib`` by kind, per module.

Usage, with each checkout holding ``src/tftlib``:

    python3 scripts/src_lines.py CHECKOUT
    python3 scripts/src_lines.py PARENT CHANGE

Each physical line of a module falls in one kind:

- ``docstring``: a line of a module, class or function docstring (``ast``);
- ``comment``: a line holding only a comment (``tokenize``);
- ``blank``: a line holding only whitespace;
- ``code``: every other line, a code line with a trailing comment included.

One row per module, then the total; ``total`` is what ``wc -l`` counts.
Given a second checkout, each cell reads ``parent -> change (difference)``,
and a module that only one of them has counts 0 lines in the other.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(source: str) -> dict[str, int]:
    """The number of lines of each kind in the module source."""
    docs = docstring_lines(ast.parse(source))
    comments, other = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            other.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docs:
            kind = "docstring"
        elif number in other:
            kind = "code"
        elif number in comments:
            kind = "comment"
        else:
            kind = "code" if line.strip() else "blank"
        counts[kind] += 1
    return counts


def table(checkout: Path) -> dict[str, dict[str, int]]:
    """The counts of each module of the checkout, and their ``total``."""
    rows = {path.name: split(path.read_text())
            for path in sorted((checkout / "src" / "tftlib").glob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    for r in rows.values():
        r["total"] = sum(r[k] for k in KINDS)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", type=Path, help="checkout whose src/tftlib is counted")
    ap.add_argument("change", type=Path, nargs="?",
                    help="a second checkout, compared with the first module by module")
    args = ap.parse_args(argv)
    columns = KINDS + ("total",)
    parent = table(args.checkout)
    if args.change is None:
        print(f"{'module':<14}" + "".join(f"{k:>10}" for k in columns))
        for name, r in parent.items():
            print(f"{name:<14}" + "".join(f"{r[k]:>10}" for k in columns))
        return 0
    change = table(args.change)
    zero = dict.fromkeys(columns, 0)
    names = sorted((parent.keys() | change.keys()) - {"total"}) + ["total"]
    print(f"{'module':<14}" + "".join(f"{k:>22}" for k in columns))
    for name in names:
        old, new = parent.get(name, zero), change.get(name, zero)
        print(f"{name:<14}" + "".join(f"{f'{old[k]} -> {new[k]} ({new[k] - old[k]:+d})':>22}"
                                      for k in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
