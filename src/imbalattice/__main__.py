import os
import sys

from .cli import main


def run() -> int:
    """Run the command line, ending quietly when the reader closes stdout.

    ``imbalattice enumerate 16 | head -1`` closes the pipe early.  Output
    that can no longer be written is dropped: stdout is pointed at
    ``os.devnull``, so the flush at interpreter exit cannot raise again,
    and the exit code is 1, as for any write error.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
