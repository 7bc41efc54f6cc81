"""README's Library example runs as written, so a renamed or removed public name fails here."""

import pathlib
import re
import subprocess
import sys

from test_cli import _child_env

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)[1]
    done = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
