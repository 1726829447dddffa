"""Count the lines of reca's source, the measure of ROADMAP's line targets.

    python3 tools/loc.py
    python3 tools/loc.py --base HEAD^

Run from anywhere inside a git checkout; only the standard library is
needed.  Over src/reca/*.py and src/reca/decks/*.py it prints, per file
and in total, the line count as wc -l gives it and the code-line count:
the lines left when blank lines, comment lines and the lines of
docstrings (a module's, a class's or a function's) are left out.

With --base REV it prints instead, per file and in total, the code-line
count at REV, here, and the difference, here less REV; a file that one
side lacks counts 0 there.  REV's src/ is exported with git archive into
a temporary directory, as tools/differential.py does.
"""

import argparse
import ast
import io
import tempfile
import tokenize
from pathlib import Path

from differential import export

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


def counts(root):
    """{path relative to root: (wc -l lines, code lines)} of every source
    file under root."""
    return {str(path.relative_to(root)): count(path.read_text(encoding="utf-8"))
            for pattern in SOURCES for path in sorted(root.glob(pattern))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    here = counts(CHECKOUT)
    if args.base is None:
        for name, (wc, code) in here.items():
            print(f"{wc:6} {code:6}  {name}")
        total_wc, total_code = (sum(column) for column in zip(*here.values()))
        print(f"{total_wc:6} {total_code:6}  total (wc -l, code lines)")
        return
    with tempfile.TemporaryDirectory() as tmp:
        base = counts(export(args.base, Path(tmp)).parent)
    rows = {name: (base.get(name, (0, 0))[1], here.get(name, (0, 0))[1])
            for name in here | base}
    rows[f"total code lines ({args.base}, here, here less {args.base})"] = (
        sum(b for b, _ in rows.values()), sum(h for _, h in rows.values()))
    for name, (b, h) in rows.items():
        print(f"{b:6} {h:6} {h - b:+6}  {name}")


if __name__ == "__main__":
    main()
