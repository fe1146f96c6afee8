"""``python -m repro.analysis`` — run the simlint engine-protocol linter."""

import sys

from repro.analysis.linter import main

sys.exit(main())
