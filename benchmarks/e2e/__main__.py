"""``python -m benchmarks.e2e`` — see :mod:`benchmarks.e2e.cli`."""

import sys

from .system import prepare

prepare()

from .cli import main  # noqa: E402

sys.exit(main())
