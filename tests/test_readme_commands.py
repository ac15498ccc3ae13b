"""Every example under "## Command line" in README.md runs as printed.

The fenced `sh` block of that section is read, continuation lines are
joined, and each `alcove-lab ...` line goes through `cli.dispatch` in
process.  `[--csv]` stands for the optional flag `--csv`, `poset.json`
for a poset written from the JSON of an `order` run, and each config or
alcove file named under "## JSON schemas" for its example there.
"""

import io
import json
import os
import re
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


def config_examples():
    """{file name: text} of every `json` block under "## JSON schemas"
    that the line before it names, as in "A points table, `custom.json`:"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## JSON schemas\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"`([\w-]+\.json)`:\n\n```json\n(.*?)```",
                           section, re.S))


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


def substituted_examples(tmp):
    """The README examples as they run: `[--csv]` as `--csv`,
    `poset.json` as a poset written into the directory tmp from the JSON
    of an `order` run, and each config or alcove example written into tmp
    under its name."""
    code, out = run(["order", "--builtin", "hilb", "--n", "2",
                     "--lambda-prime", "5", "--p", "5", "--window", "0:15"])
    assert code == 0
    poset = os.path.join(tmp, "poset.json")
    with open(poset, "w", encoding="utf-8") as fh:
        json.dump(json.loads(out)["outputs"]["poset"], fh)
    files = {"[--csv]": "--csv", "poset.json": poset}
    for name, text in config_examples().items():
        files[name] = os.path.join(tmp, name)
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return [[files.get(a, a) for a in argv] for argv in readme_examples()]


def test_readme_command_line_examples_run():
    assert readme_examples()
    assert sorted(config_examples()) == ["alcove.json", "custom.json",
                                         "lambdas.json", "octahedra.json"]
    with tempfile.TemporaryDirectory() as tmp:
        for argv in substituted_examples(tmp):
            code, out = run(argv)
            assert code == 0, (argv, out)
            check_output(argv, out)
