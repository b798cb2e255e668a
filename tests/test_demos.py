"""Every demo script runs to completion, README's quick start prints what
its comments say, and every command of README's command block exits 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from consensus_lab import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == 4
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    # the block first writes the graph file of "Graph file format", which
    # its commands then read
    name, text = re.search(r"^cat > (\S+) <<'EOF'\n(.*?^)EOF$", block, re.M | re.S).groups()
    assert text == re.search(r"## Graph file format\n\n```\n(.*?)```", readme, re.S).group(1)
    (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^consensus-lab (.*)$", block.replace("\\\n", " "), re.M)
    assert len(commands) == 7
    for command in commands:
        assert cli.main(shlex.split(command)) == 0, command
        assert capsys.readouterr().err == "", command
