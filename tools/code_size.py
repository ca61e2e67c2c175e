"""Code size of the package, the measure that simplicity changes quote.

Run from the repository root::

    PYTHONPATH=src python tools/code_size.py

It prints the code lines of each module of ``src/cuntzgeo`` and their
total, and the number of exported names (``cuntzgeo.__all__``).  A code
line carries a token other than a comment or a docstring.  Then it lists
the functions whose body has 5 or more code lines and that the golden CLI
cases, ``run_checks()`` and the acceptance tests never enter
(``sys.settrace`` call events, from the first import on): the candidates
for a removal, each of which still needs its case.
"""

import ast
import contextlib
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    docs = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return docs


def _measure() -> list[tuple[str, int, int, str]]:
    """Print the code lines per module and in total; return each top-level
    function and method as (file, first line, code lines in its body, name)."""
    total, funcs = 0, []
    for path in sorted(pathlib.Path("src/cuntzgeo").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        docs = _docstring_lines(tree)
        lines = {n for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type not in _SKIP
                 for n in range(tok.start[0], tok.end[0] + 1) if n not in docs}
        total += len(lines)
        print(f"{len(lines):6d}  {path}")
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{top.name}.{node.name}" if top is not node else node.name
                    size = len({n for n in lines if node.body[0].lineno <= n <= node.end_lineno})
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    funcs.append((str(path.resolve()), first, size, f"{path.stem}.{name}"))
    print(f"{total:6d}  total")
    return funcs


def main() -> None:
    funcs = _measure()
    entered = set()
    sys.settrace(lambda frame, event, arg: entered.add(
        (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
    import cuntzgeo
    from cuntzgeo import checks, cli
    sys.path.insert(0, "tests")
    import pytest
    from test_golden_cli import CASES
    with contextlib.redirect_stdout(io.StringIO()):
        codes = {cli.main(argv) for argv in CASES.values()}
        gate = pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"])
    checks.run_checks()
    sys.settrace(None)
    if codes != {0} or gate != 0:
        print("a golden case or an acceptance test failed: the list is partial")
    print(f"{len(cuntzgeo.__all__):6d}  exported names (cuntzgeo.__all__)")
    for file, first, size, name in funcs:
        if size >= 5 and (file, first) not in entered:
            print(f"{size:6d}  {name} (never entered)")


if __name__ == "__main__":
    main()
