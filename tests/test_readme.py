"""The README's examples run, and their sample output is what the code prints.

Every ``decoyqkd`` command in a ``sh`` block runs in-process, in a fresh
directory that holds the README's ``run.ini``; a pipeline runs only its
first stage.  Each exit code must be one the README's exit-code table
lists.  An untagged block right after a ``sh`` block is the sample output
of that block's first command: each of its lines must be a line of the real
output, a line ending in ``...`` the start of one, and a bare ``...`` line
stands for omitted lines.  Every name the bound-families list and the
package layout cite in backticks must exist, and the config sections and
``[fluctuation]`` keys the README lists are the CLI's.
"""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

import decoyqkd
from decoyqkd.cli import CONFIG_KEYS, main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
EXIT_CODES = {int(code) for code in re.findall(r"^\| (\d+) \|", README, flags=re.M)}
RUN_INI = next(body for info, body in BLOCKS if info == "ini")


def _commands(block: str) -> list[list[str]]:
    """The first stage of each ``decoyqkd`` command line of a sh block."""
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        tokens = shlex.split(line, comments=True)
        if tokens[:1] == ["decoyqkd"]:
            commands.append(tokens[1 : tokens.index("|") if "|" in tokens else None])
    return commands


CASES = [
    (_commands(body), BLOCKS[i + 1][1] if i + 1 < len(BLOCKS) and not BLOCKS[i + 1][0] else "")
    for i, (info, body) in enumerate(BLOCKS)
    if info == "sh" and _commands(body)
]


@pytest.mark.parametrize("commands, sample", CASES, ids=[cmds[0][0] for cmds, _ in CASES])
def test_readme_commands_and_samples(tmp_path, monkeypatch, capsys, commands, sample):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(RUN_INI, encoding="utf-8")
    outputs = []
    for argv in commands:
        code = main(argv)
        assert code in EXIT_CODES, (argv, code)
        outputs.append(capsys.readouterr().out.splitlines())
    for line in sample.splitlines():
        if line.endswith("..."):
            assert line == "..." or any(
                out.startswith(line[:-3]) for out in outputs[0]
            ), line
        else:
            assert line in outputs[0], line


def test_readme_covers_every_command():
    # Guards the parsing above: a README it no longer reads would pass vacuously.
    run = {commands[0][0] for commands, _ in CASES}
    assert run == {"bound", "simulate", "table1", "sweep", "feasibility"}
    assert sum(bool(sample) for _, sample in CASES) == 3


def test_readme_library_sample(capsys):
    code = next(body for info, body in BLOCKS if info == "python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = re.findall(r"^print\(.*\)\s+# (\S+)$", code, flags=re.M)
    assert len(printed) == len(expected) == 4
    for line, value in zip(printed, expected):
        assert line.split()[-1] == value


def test_readme_cited_names_exist():
    name = re.compile(r"`([A-Za-z_]\w*)`")
    families = README.split("bound families are implemented:\n", 1)[1].split("\n\n", 1)[0]
    cited = name.findall(families)
    assert len(cited) >= 4, families
    for cite in cited:
        assert hasattr(decoyqkd, cite), cite
    layout = README.split("## Package layout\n", 1)[1].split("\n## ", 1)[0]
    # Each bullet opens with its module, "- `bounds.py`: ...", and may cite
    # that module's own names beside the package's.
    bullets = re.findall(r"^- `(\w+)\.py`:(.*?)(?=^- |\Z)", layout, flags=re.M | re.S)
    assert len(bullets) == 10, layout
    for module_name, text in bullets:
        module = importlib.import_module(f"decoyqkd.{module_name}")
        for cite in name.findall(text):
            assert hasattr(module, cite) or hasattr(decoyqkd, cite), (module_name, cite)


def test_readme_config_sections_match_config_keys():
    # A section or key the CLI drops cannot stay in the README.
    text = " ".join(README.split("\nSections: ", 1)[1].split("\n\n", 1)[0].split())
    # First mentions, in order; [rates] cites [scenario] again.
    sections = dict.fromkeys(re.findall(r"`\[(\w+)\]`", text))
    assert list(sections) == list(CONFIG_KEYS), text
    fluctuation = re.search(r"`\[fluctuation\]` \(([^)]*)\)", text)
    assert fluctuation.group(1).split(", ") == list(CONFIG_KEYS["fluctuation"])
