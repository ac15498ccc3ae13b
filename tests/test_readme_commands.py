"""Every example under "## Command line" in README.md runs as printed.

The fenced `sh` block of that section is read, continuation lines are
joined, and each `alcove-lab ...` line goes through `cli.dispatch` in
process.  `[--csv]` stands for the optional flag `--csv`, and `poset.json`
for a poset written from the JSON of an `order` run.
"""

import io
import json
import os
import shlex
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from alcovelab.cli import dispatch

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The argv (without the program name) of every `alcove-lab` line in the
    first `sh` block after "## Command line", continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("alcove-lab ")]


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


def check_output(argv, out):
    """One JSON document, or the DOT or CSV text its flags ask for."""
    if argv[0] == "export" or "dot" in argv:
        assert out.startswith("digraph") and out.endswith("}\n"), argv
    elif "--csv" in argv:
        header, *rows = out.splitlines()
        assert header == "partition,image,provenance", argv
        assert rows and all(row.count(",") == 2 for row in rows), argv
    else:
        json.loads(out)


def test_readme_command_line_examples_run():
    examples = readme_examples()
    assert examples
    code, out = run(["order", "--builtin", "hilb", "--n", "2",
                     "--lambda-prime", "5", "--p", "5", "--window", "0:15"])
    assert code == 0
    with tempfile.TemporaryDirectory() as tmp:
        poset = os.path.join(tmp, "poset.json")
        with open(poset, "w", encoding="utf-8") as fh:
            json.dump(json.loads(out)["outputs"]["poset"], fh)
        for argv in examples:
            argv = [{"[--csv]": "--csv", "poset.json": poset}.get(a, a)
                    for a in argv]
            code, out = run(argv)
            assert code == 0, (argv, out)
            check_output(argv, out)
