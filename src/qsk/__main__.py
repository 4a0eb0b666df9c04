"""``python -m qsk``: the ``qsk`` command line (see :mod:`qsk.cli`)."""

import sys

from .cli import main

sys.exit(main())
