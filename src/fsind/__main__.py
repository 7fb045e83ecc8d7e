"""python -m fsind: the fsind command line, exiting with main's code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
