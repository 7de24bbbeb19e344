"""Entry point named by ``BENCHMARK.json``: ``python3 perfbench/run.py``.

Run as a script, this directory (not the checkout root) is on
``sys.path``; put the root there so ``perfbench`` imports as a package.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
