"""Run one ``selprover`` CLI command and stamp when its dataset has loaded.

    python3 perfbench/clirun.py STAMP.json train --config CFG.json ...

Behaves as the ``selprover`` console script (``selprover.cli.main``), taken
from the ``src/`` tree next to this directory, with one addition: when the
command's dataset finishes loading, and again when the command returns, it
records ``time.monotonic()`` into STAMP.json, along with the process's peak
resident set size. The parent that started this process measures from
before the spawn on the same clock, so the stamp splits the command's wall
time into set-up (interpreter start, imports, config, dataset) and the rest.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    stamp_path, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(SRC))
    from selprover import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"selprover imported from {cli.__file__}, not {SRC}")
    stamps: dict[str, float] = {}
    load_dataset = cli.load_dataset

    def stamped_load(*args, **kwargs):
        ds = load_dataset(*args, **kwargs)
        stamps["loaded"] = time.monotonic()
        stamps["loaded_cpu"] = time.process_time()
        return ds

    cli.load_dataset = stamped_load
    code = cli.run_command(argv)
    stamps["done"] = time.monotonic()
    stamps["done_cpu"] = time.process_time()
    stamps["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stamp_path.write_text(json.dumps(stamps))
    return code


if __name__ == "__main__":
    sys.exit(main())
