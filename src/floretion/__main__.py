"""`python -m floretion` and the `floretion` script."""

import os
import sys


def main() -> int:
    """Run the CLI with one OpenBLAS thread unless OPENBLAS_NUM_THREADS is
    set: more gained nothing at the matrix path's sizes on a 2-vCPU host,
    where `pow dense7.json -m 2` (README) took 0.36-0.68 s with two threads
    and 0.29-0.44 s with one.  Set before numpy loads, and here rather than
    in the library, which leaves the environment alone."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
