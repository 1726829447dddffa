"""Count the lines of reca's source, the measure of ROADMAP's line targets.

    python3 tools/loc.py

Run from anywhere inside a git checkout; only the standard library is
needed.  Over src/reca/*.py and src/reca/decks/*.py it prints, per file
and in total, the line count as wc -l gives it and the code-line count:
the lines left when blank lines, comment lines and the lines of
docstrings (a module's, a class's or a function's) are left out.
"""

import ast
import io
import tokenize
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCES = ("src/reca/*.py", "src/reca/decks/*.py")


def docstring_lines(tree):
    """The numbers of the lines that docstrings span in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(wc -l lines, code lines) of one file's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main():
    total_wc = total_code = 0
    for pattern in SOURCES:
        for path in sorted(CHECKOUT.glob(pattern)):
            wc, code = count(path.read_text(encoding="utf-8"))
            total_wc += wc
            total_code += code
            print(f"{wc:6} {code:6}  {path.relative_to(CHECKOUT)}")
    print(f"{total_wc:6} {total_code:6}  total (wc -l, code lines)")


if __name__ == "__main__":
    main()
