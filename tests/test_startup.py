"""What a fresh interpreter loads for ``import kgunits.cli``.

kgunits runs as one command per graph, so its import is part of every run.
The record classes come from ``kgunits._record``, not ``dataclasses``
(which loads ``inspect``), and ``uuid`` is loaded only to mint an unseeded
identifier. Every module of the package is still imported up front: the
start-up saving is work removed, not work deferred into the command.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import kgunits

SOURCE = Path(kgunits.__file__).parent
UNUSED = ("dataclasses", "inspect", "uuid")


def test_import_loads_every_module_and_no_unused_library():
    # -S: without the site module, whose path hooks may load modules of
    # their own; -X dev where the tests run in development mode.
    flags = ["-S", *(["-X", "dev"] if sys.flags.dev_mode else [])]
    code = (
        f"import json, sys; sys.path.insert(0, {str(SOURCE.parent)!r}); "
        "import kgunits.cli; print(json.dumps(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(result.stdout))
    assert [name for name in UNUSED if name in loaded] == []
    package = {f"kgunits.{path.stem}" for path in SOURCE.glob("*.py") if path.stem != "__init__"}
    assert package - loaded == set()
