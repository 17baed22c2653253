"""What a fresh interpreter loads for ``import kgunits.cli`` and for a command.

kgunits runs as one command per graph, so its import is part of every run.
Every module of the package is imported up front. The record classes come
from ``kgunits._record``, not ``dataclasses`` (which loads ``inspect``). A
standard library used on one path is loaded on that path: ``uuid`` to mint
an unseeded identifier, ``logging`` for the first "no label" warning,
``datetime`` to stamp or check a time, ``fractions`` (with ``decimal``) to
score an alignment. A command that never takes that path never pays for it.
The import loads no compiled library it does not use, and no command loads
OpenSSL: SHA-256 comes from the interpreter's own module, not ``hashlib``
(whose ``_hashlib`` loads libcrypto), and artifacts are written without
``tempfile`` (whose ``random`` and ``shutil`` load ``math``, ``zlib``,
``bz2`` and ``lzma``). The help formatter takes the terminal width without
``shutil`` too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import kgunits

from conftest import FIXTURES

SOURCE = Path(kgunits.__file__).parent
# Loaded by no command.
NEVER = ("dataclasses", "inspect", "hashlib", "_hashlib", "tempfile", "random",
         "shutil", "zlib", "bz2", "lzma")
DEFERRED = ("logging", "datetime", "fractions", "decimal")
UNUSED = (*NEVER, "uuid", *DEFERRED)


def _loaded_after(code: str) -> list:
    """Run ``code`` after putting the package on the path, in a fresh
    ``python -S`` (without the site module, whose path hooks may load
    modules of their own; in ``-X dev`` where the tests run in development
    mode), and return what its last line printed, read as JSON."""
    flags = ["-S", *(["-X", "dev"] if sys.flags.dev_mode else [])]
    code = f"import json, sys; sys.path.insert(0, {str(SOURCE.parent)!r}); {code}"
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_every_module_and_no_unused_library():
    loaded = set(_loaded_after("import kgunits.cli; print(json.dumps(sorted(sys.modules)))"))
    assert [name for name in UNUSED if name in loaded] == []
    package = {f"kgunits.{path.stem}" for path in SOURCE.glob("*.py") if path.stem != "__init__"}
    assert package - loaded == set()


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["translate", "travel.trig", "--rules", "thumb.lp"], set()),
        (["align", "antenna_item.trig", "antenna_triangle.trig"], {"fractions", "decimal"}),
        (["label", "endangered.trig"], {"logging"}),
        (["pipeline", "travel.trig", "--policy", "endangered.pol", "--seed", "3"],
         {"logging", "datetime"}),
    ],
    ids=["translate", "align", "label", "pipeline"],
)
def test_a_library_used_on_one_path_is_loaded_on_that_path(argv, loads, tmp_path):
    command, *names = argv
    argv = [command, *(str(FIXTURES / n) if "." in n else n for n in names)]
    argv += ["--out", str(tmp_path)]
    code, modules = _loaded_after(
        "import contextlib, io; from kgunits.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    assert code == 0
    assert {name for name in DEFERRED if name in modules} == loads
    assert [name for name in NEVER if name in modules] == []
