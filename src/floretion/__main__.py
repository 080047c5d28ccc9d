"""`python -m floretion` and the `floretion` script."""

import os
import sys


def main() -> int:
    """Run the CLI with one OpenBLAS thread unless OPENBLAS_NUM_THREADS is
    set: more gained nothing at the matrix path's sizes on a 2-vCPU host and
    sometimes cost several times as much.  Set before numpy loads, and here
    rather than in the library, which leaves the environment alone."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
