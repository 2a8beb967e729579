"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from chidip.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_readme_python_blocks_run_in_order():
    # each block goes on from the names the blocks before it defined
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_cli_examples_print_what_the_readme_shows(capsys):
    examples = re.findall(r"^```\n\$ chidip (.*?)\n(.*?)^```", README,
                          re.S | re.M)
    assert [args.split()[0] for args, _ in examples] == [
        "sweep", "dynamics", "lamb"]
    for args, shown in examples:
        assert main(shlex.split(args)) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (shown, "")
