"""README's Library tour runs as written, and each expression's trailing
comment states its value: ``0.881373...`` (within one unit of the last
digit shown), ``log 2``, ``None`` or
``CollinearViolation(r=0.99861..., ...)``; the estimator's search margin,
level-0 overheads, lens tile and pinned lens counts that it quotes are
the code's and the tests'."""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

from hypermetric import quasihyperbolic

from test_quasihyperbolic import PINNED_LENSES

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block():
    text = README.read_text()
    return re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)


def near(value, digits):
    return abs(value - float(digits)) < 10.0 ** -len(digits.partition(".")[2])


def check_comment(value, comment):
    """Whether ``value`` is what the comment says."""
    if comment == "None":
        return value is None
    if m := re.fullmatch(r"log (\d+)", comment):
        return math.isclose(value, math.log(int(m.group(1))), rel_tol=1e-12)
    if m := re.match(r"(\w+)\((\w+)=([\d.]+)\.\.\.", comment):
        name, field, digits = m.groups()
        return type(value).__name__ == name and near(getattr(value, field), digits)
    if m := re.match(r"([\d.]+)\.\.\.", comment):
        return near(value, m.group(1))
    raise AssertionError(f"no value read from the comment {comment!r}")


def test_library_tour_runs_and_matches_its_comments():
    block = tour_block()
    comments = {tok.start[0]: tok.string.lstrip("# ").strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT and tok.line.strip()[0] != "#"}
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            comment = comments[stmt.end_lineno]
            assert check_comment(eval(code, namespace), comment), (code, comment)
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 6


def test_estimator_figures_match_the_code():
    text = " ".join(README.read_text().split())
    margin = re.search(r"stops its search at ([\d.]+) times the previous level's value", text)
    assert float(margin.group(1)) == quasihyperbolic._LIMIT_MARGIN
    level0 = re.search(r"level 0 stops at ([\d.]+) times \(1 \+ beta\) times the pair's path "
                       r"floor \(below\), where beta is the stencil's worst-direction overhead: "
                       r"([\d.]+)%, since every per-query grid is 2-D", text)
    assert [float(v) for v in level0.groups()] == [
        quasihyperbolic._LIMIT_MARGIN, round(100.0 * quasihyperbolic._overhead(), 2)]
    assert f"tiles of {quasihyperbolic._TILE} cells a side" in text
    for _, _, _, whole, lens in PINNED_LENSES:
        assert re.search(rf"\b{lens} of {whole}\b", text), (lens, whole)
