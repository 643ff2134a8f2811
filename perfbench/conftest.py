"""Make the program (``src/``) and the benchmark modules importable when
the benchmark's tests run: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
