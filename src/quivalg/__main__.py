"""``python -m quivalg``: the command-line interface of ``quivalg.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
