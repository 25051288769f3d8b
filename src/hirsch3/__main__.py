"""`python -m hirsch3` runs the command line."""

import sys

from .cli import main

sys.exit(main())
