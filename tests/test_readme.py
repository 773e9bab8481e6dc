"""The README's examples, run as written.

Each line of the library quick start runs in one namespace, and a line
whose comment starts with a Python literal (``# 5``, ``# 32: ...``) must
evaluate to it.  Each ``$ acmgenera ...`` example runs through
:func:`acmgenera.cli.main` and must print the lines under it; an example
cut short with ``...`` is compared on the text before and after the cut.
The command synopsis names each subcommand's ``--format`` choices as its
help does.
"""
import ast
import re
import shlex
from pathlib import Path

import pytest

from acmgenera import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1).splitlines()


def _literal(comment: str):
    try:
        return True, ast.literal_eval(comment.split(":", 1)[0].strip())
    except (ValueError, SyntaxError):
        return False, None


def test_library_quick_start_values():
    namespace = {}
    checked = []
    for line in _block("Library quick start", "python"):
        code, _, comment = line.partition("#")
        is_value, value = _literal(comment)
        if comment and is_value:
            assert eval(code, namespace) == value, line
            checked.append(code.strip())
        elif code.strip():
            exec(code, namespace)
    assert len(checked) >= 5, checked


def test_command_line_examples(capsys):
    examples = []
    for line in _block("Command line", "sh"):
        if line.startswith("$ acmgenera "):
            examples.append((shlex.split(line[len("$ acmgenera "):]), []))
        elif line and examples:
            examples[-1][1].append(line)
    assert len(examples) == 3, examples
    for argv, lines in examples:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        expected = "\n".join(lines) + "\n"
        if "..." in expected:
            head, tail = expected.split("...")
            assert out.startswith(head) and out.endswith(tail), (argv, out)
        else:
            assert out == expected, argv


def test_command_line_synopsis_names_each_format_option(capsys):
    # a synopsis line shows [--format ...] with the choices exactly when its subcommand takes it
    lines = _block("Command line", "text")
    for line in lines:
        with pytest.raises(SystemExit):
            cli.main([line.split()[1], "-h"])
        choices = re.search(r"--format \{(.*?)\}", capsys.readouterr().out)
        if choices:
            assert f"[--format {choices.group(1).replace(',', '|')}]" in line, line
        else:
            assert "--format" not in line, line
    assert len(lines) == 9, lines
