"""Run the command-line interface: python -m mdgame."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
