"""Line counts of Python files: every line, as ``wc -l`` counts them, and code
lines only, leaving out blank lines, comments and docstrings.

    python3 tools/loc.py src/gselc/*.py
"""

import ast
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: str) -> tuple[int, int]:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


if __name__ == "__main__":
    rows = [(*count(path), path) for path in sys.argv[1:]]
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    print(f"{'lines':>7} {'code':>7}")
    for lines, code, name in rows:
        print(f"{lines:7d} {code:7d} {name}")
