"""Count the code, docstring and comment lines of every module in src/puflab.

A non-blank line is docstring, else code if it holds a token that is not a
comment, else comment; only the code count measures less code.  Prints one
line per file and a total; exits 1 if it finds no module.  Run from any
directory:

    python tools/src_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text):
    """[code, docstring, comment] line counts of one module's source."""
    doc = {i for node in ast.walk(ast.parse(text))
           if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
           and ast.get_docstring(node) is not None
           for i in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    code = {i for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type not in NOT_CODE for i in range(tok.start[0], tok.end[0] + 1)}
    kinds = ["docstring" if i in doc else "code" if i in code else "comment"
             for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    return [kinds.count(k) for k in ("code", "docstring", "comment")]


def main():
    paths = sorted(ROOT.glob("src/puflab/*.py"))
    if not paths:
        sys.exit(f"no module found in {ROOT / 'src' / 'puflab'}")
    total = [0, 0, 0]
    for path in paths:
        file_counts = counts(path.read_text(encoding="utf-8"))
        total = [t + c for t, c in zip(total, file_counts)]
        print(path.relative_to(ROOT).as_posix(), *file_counts)
    print("total code, docstring, comment:", *total)


if __name__ == "__main__":
    main()
