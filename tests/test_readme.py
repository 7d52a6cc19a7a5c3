"""The README's examples run as written: the Quick start block gives its
commented values, and the CLI examples that show a report print it byte for
byte."""

import ast
import io
import re
import shlex
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from spinnet import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced_blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks under a level-2 README heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", body, re.S | re.M)
    return [code for lang, code in fences if lang == language]


def _quick_start_values():
    """Run the Quick start block statement by statement and return, for each
    bare expression, its value and the comment that follows it."""
    block, = _fenced_blocks("Quick start", "python")
    lines = block.splitlines()
    namespace: dict = {}
    values = []
    body = ast.parse(block).body
    for k, stmt in enumerate(body):
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        end = body[k + 1].lineno - 1 if k + 1 < len(body) else len(lines)
        comment = " ".join(line.split("#", 1)[1].strip()
                           for line in lines[stmt.end_lineno - 1:end] if "#" in line)
        values.append((ast.get_source_segment(block, stmt).split("(", 1)[0], value, comment))
    return values


def test_quick_start_gives_its_commented_values():
    values = _quick_start_values()
    assert [name for name, _, _ in values] == [
        "evaluate", "exact_inner_product", "mc_inner_product", "averaged_inner_product"]
    for name, value, comment in values:
        if name == "evaluate":
            assert repr(value) == comment == "(1+0j)"
        elif name == "mc_inner_product":
            assert comment == "(mean, standard error)"
            mean, err = value
            assert 0 < err and abs(mean - 1 / 12) < 4 * err
        else:
            # "(0.0833... +0j)  = 1/12": the shown digits, a zero imaginary
            # part and the exact fraction
            digits, fraction = re.fullmatch(r"\((\d\.\d+)\.\.\. \+0j\)\s+= (\d+/\d+)",
                                            comment).groups()
            assert repr(value.real).startswith(digits) and value.imag == 0
            assert abs(value.real - float(Fraction(fraction))) < 1e-15


def _cli_examples():
    """(argv, printed report) for each README invocation shown with output."""
    block = _fenced_blocks("Command line", "")[-1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.split("\n")
        if output and not output[0].startswith("$"):
            argv = shlex.split(command.removeprefix("$ spinnet "))
            examples.append((argv, "\n".join(output) + "\n"))
    return examples


def test_cli_examples_print_the_shown_reports(tmp_path, monkeypatch):
    network_doc = _fenced_blocks("Command line", "json")[0]
    (tmp_path / "theta.json").write_text(network_doc)
    monkeypatch.chdir(tmp_path)
    examples = _cli_examples()
    assert [argv[:2] for argv, _ in examples] == [
        ["ip", "theta.json"], ["section4", "--which"]]
    for argv, shown in examples:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        assert out.getvalue() == shown, argv
