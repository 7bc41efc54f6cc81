"""README's Library and CLI examples run as written, so a renamed or removed public name or flag fails here."""

import importlib
import pathlib
import re
import shlex
import subprocess
import sys

from entspan.cli import main
from test_cli import _child_env

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

#: The package modules whose names README's prose may quote as `module.name`.
MODULES = ("cli", "construct", "verify", "statemat", "bounds", "_kernels")


def _block(section: str, language: str) -> str:
    text = README.read_text().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S)[1]


def test_library_block_runs():
    done = subprocess.run(
        [sys.executable, "-c", _block("Library", "python")], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # Every command exits 0 but the sigma search, which the block says exits 3 (refuted);
    # a "# dim=..." comment is the first line the construct before it prints.
    monkeypatch.chdir(tmp_path)
    ran, first_line = [], None
    for line in _block("CLI", "sh").splitlines():
        if line.startswith("entspan "):
            argv = shlex.split(line)[1:]
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, err) == (3 if "sigma" in argv else 0, ""), line
            first_line = out.splitlines()[0]
            ran.append(argv[0])
        elif line.startswith("# dim="):
            assert first_line == re.sub(r"\s*\(.*\)$", "", line[2:]), line
            ran.append("# dim")
    assert ran == [
        "construct", "# dim", "verify", "verify", "verify", "construct", "# dim", "verify", "bounds", "bounds", "report", "report"
    ]


def test_quoted_module_names_resolve():
    # `construct.default_tns(m)` names construct.default_tns; a removed helper fails here.
    quoted = re.findall(rf"`({'|'.join(MODULES)})\.([A-Za-z_][\w.]*)[^`]*`", README.read_text())
    assert quoted
    for module, name in quoted:
        obj = importlib.import_module(f"entspan.{module}")
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {module}.{name}, which does not exist"
            obj = getattr(obj, part)
