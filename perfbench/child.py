"""Run one kgunits CLI operation in this process and report on it.

Usage: child.py SRC RESULT_JSON SPANS_JSONL|- CONFIG_JSON -- CLI_ARGV...

The working directory holds the operation's inputs. Set-up time covers
importing kgunits and loading the workload's configuration through the
public loaders, before any dataset is read. With a spans path, every
public kgunits function is wrapped and the spans are written there when
the operation ends.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def _load_config(kgunits, config: dict[str, str]):
    def text(key):
        with open(config[key], encoding="utf-8") as handle:
            return handle.read()

    catalog = kgunits.load_catalog(text("catalog"))
    schemas = kgunits.compile_schema(text("schemas"))
    if "rules" in config:
        kgunits.parse_rules(text("rules"), dict(catalog.prefixes))
    kgunits.builtin_patterns(schemas, catalog)
    if "policy" in config:
        kgunits.load_policy(text("policy"))


def main(argv: list[str]) -> int:
    start = perf_counter()
    src, result_path, spans_path, config_json = argv[:4]
    cli_argv = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    recorder = None
    if spans_path != "-":
        from tracer import Recorder

        recorder = Recorder(op=str(os.getpid()))
        setup_span = recorder.open("bench.setup")
    import kgunits
    import kgunits.cli

    if recorder is not None:
        recorder.install()
    _load_config(kgunits, json.loads(config_json))
    setup_s = perf_counter() - start
    if recorder is not None:
        recorder.close(setup_span)
    # The parent checks the module file, so that an installed copy of
    # kgunits elsewhere cannot stand in for the checkout's source.
    result = {"setup_s": setup_s, "kgunits_file": kgunits.__file__}
    try:
        rc = kgunits.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        if recorder is not None:
            recorder.write(spans_path)
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
