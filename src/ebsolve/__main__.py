"""``python -m ebsolve``: run the benchmark CLI."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
