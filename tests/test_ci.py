"""The CI workflow's shell steps parse.

`bash -n` reads every `run` step of the tier-1 workflow, and every
`python -c` program in one compiles.  A quote inside a single-quoted
program ends the program early, and bash then fails on the rest of the
step, so either check catches it without running CI.
"""

import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def run_steps(text):
    """The `run` scripts of a workflow's steps, in order."""
    doc = yaml.safe_load(text)
    return [step["run"] for job in doc["jobs"].values() for step in job["steps"] if "run" in step]


def without_heredocs(script):
    """The script with the bodies of its here-documents left out."""
    lines, end = [], None
    for line in script.splitlines():
        if end is not None:
            end = None if line.strip() == end else end
            continue
        lines.append(line)
        heredoc = re.search(r"<<-?\s*(['\"]?)(\w+)\1", line)
        end = heredoc and heredoc.group(2)
    return "\n".join(lines)


def python_programs(script):
    """The programs `python -c` or `python3 -c` run in a script."""
    lexer = shlex.shlex(without_heredocs(script), posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = list(lexer)
    return [program for command, flag, program in zip(words, words[1:], words[2:])
            if command in ("python", "python3") and flag == "-c"]


def bash_accepts(script):
    return subprocess.run(["bash", "-n"], input=script, text=True,
                          capture_output=True).returncode == 0


def test_python_programs_are_found():
    script = ("echo '#' x\npython -c 'print(1)'\ncat <<'EOF'\npython -c 'not a program\nEOF\n"
              "out=$(python3 -c \"import sys\" | wc -l)\n")
    assert python_programs(script) == ["print(1)", "import sys"]


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_every_run_step_parses():
    steps = run_steps(WORKFLOW.read_text())
    assert len(steps) == 4
    for script in steps:
        assert bash_accepts(script), script
        for program in python_programs(script):
            compile(program, "python -c", "exec")


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_an_apostrophe_in_a_program_is_caught():
    # the breakage the console-script step once had: an apostrophe in a
    # comment of a single-quoted program ends it, and bash fails on the rest
    script = "python -c '\nimport sys\n# the net's rows\nprint(sys.argv)\n'\necho done\n"
    assert not bash_accepts(script)
    assert bash_accepts(script.replace("net's", "net"))
