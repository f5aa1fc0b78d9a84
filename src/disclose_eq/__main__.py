"""The CLI's one entry: `python -m disclose_eq` and the `disclose-eq` script.

A cold process makes one BLAS call, the oracle's dot of about m terms,
which OpenBLAS splits across threads only above 10,000 terms; yet it
starts a pool of one thread per core when numpy loads, and the idle
workers spin before they sleep.  So the entry defaults
OPENBLAS_NUM_THREADS to 1 before numpy first loads; a value the caller
set wins.  Importing the package sets nothing.

Once the command has returned and stdout and stderr are flushed, the
process ends with os._exit: the interpreter's teardown, a fifth of a cold
process, frees nothing that the exit does not.  Every file the CLI
writes is closed by then, and simulate's thread pool is joined.  Under a
tracer or profiler (coverage, cProfile, a debugger), or when a flush
fails, the process exits through sys.exit as usual, so that their exit
hooks run and a failed flush is reported.
"""
import os
import sys


def _observed() -> bool:
    """Whether a tracer or profiler watches this process."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6)))
    )


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run

    code = run()
    if not _observed():
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:  # a closed or missing stream: sys.exit reports it
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
