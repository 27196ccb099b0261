"""``python -m fkclt``: the command-line front end, as the ``fkclt`` script."""

import sys

from .cli import main

sys.exit(main())
