"""The CLI's one entry: `python -m disclose_eq` and the `disclose-eq` script.

A cold process makes one BLAS call, the oracle's dot of about m terms,
which OpenBLAS splits across threads only above 10,000 terms; yet it
starts a pool of one thread per core when numpy loads, and the idle
workers spin before they sleep.  So the entry defaults
OPENBLAS_NUM_THREADS to 1 before numpy first loads; a value the caller
set wins.  Importing the package sets nothing.
"""
import os
import sys


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run

    sys.exit(run())


if __name__ == "__main__":
    main()
