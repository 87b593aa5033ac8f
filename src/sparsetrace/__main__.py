"""Command-line entry point: ``python -m sparsetrace <subcommand> ...``."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
