"""``python -m clutterlab``: the command-line interface of ``clutterlab.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
