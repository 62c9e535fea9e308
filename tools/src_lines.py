"""Print the size of src/fgfusion: all lines, as ``wc -l`` counts them, and
code lines, without docstrings, comments and blank lines.

Run from the repository root: ``python tools/src_lines.py``. Stdlib only.
"""

import ast
import pathlib
import tokenize

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in BLANK:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main() -> None:
    paths = sorted(pathlib.Path("src/fgfusion").glob("*.py"))
    total = sum(path.read_bytes().count(b"\n") for path in paths)
    print(f"{total} lines, {sum(map(code_lines, paths))} code lines in src/fgfusion")


if __name__ == "__main__":
    main()
