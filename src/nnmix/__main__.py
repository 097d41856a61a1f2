"""``python -m nnmix``: the command-line front end, as the ``nnmix`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
