"""``python -m stochpod``: the command-line driver of ``stochpod.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
