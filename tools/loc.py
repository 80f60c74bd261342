"""Print the size of the omplab package: physical lines, code lines, statements.

Code lines are lines that carry a token other than a comment or a newline,
outside module, class and function docstrings. Statements are `ast`
statements, docstrings not counted. Only the standard library is used.

Run from the repository root: ``python3 tools/loc.py`` (or pass a directory).
The totals come first, then each file's three counts, one line per file.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree):
    """The statements of `tree` that are module, class or function docstrings."""
    owners = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [node.body[0] for node in owners if ast.get_docstring(node, clean=False) is not None]


def count(path):
    """Return (physical lines, code lines, statements) of one source file."""
    text = Path(path).read_text()
    tree = ast.parse(text)
    docs = _docstrings(tree)
    skipped = {line for doc in docs for line in range(doc.lineno, doc.end_lineno + 1)}
    code = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return len(text.splitlines()), len(code - skipped), statements - len(docs)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src" / "omplab")
    paths = sorted(root.glob("*.py"))
    counts = [count(path) for path in paths]
    totals = [sum(column) for column in zip(*counts)]
    for name, value in zip(("lines", "code lines", "statements"), totals):
        print(f"{name:>10}: {value:,}")
    print()
    print(f"{'lines':>7} {'code':>7} {'stmts':>7}  file")
    for path, (lines, code, statements) in zip(paths, counts):
        print(f"{lines:>7,} {code:>7,} {statements:>7,}  {path.name}")


if __name__ == "__main__":
    main(sys.argv)
