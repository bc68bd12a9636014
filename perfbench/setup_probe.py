"""Set-up of the program in a fresh process: importing the package,
loading the config, building the connection field and parsing its
expressions.  run.py times this process from outside.

Usage: python3 perfbench/setup_probe.py CONFIG.json
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radialgauge import cli  # noqa: E402

cli.load_config(sys.argv[1])
