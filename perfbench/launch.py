"""Run one pcpkit command with the benchmark's tracer installed.

Usage: python3 perfbench/launch.py TOTALS_JSON <pcpkit arguments...>

Imports ``pcpkit.cli`` (timing the import), wraps the layer functions, calls
``pcpkit.cli.main`` with the remaining arguments, writes the per-function
totals to TOTALS_JSON and exits with the command's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import run_traced_cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(run_traced_cli(sys.argv[2:], sys.argv[1]))
