import gc
import sys

from .cli import main


def entry() -> int:
    """``python -m sapsim`` and the ``sapsim`` script: ``main()`` (which
    in-process callers use), then ``gc.freeze()`` so that shutdown skips
    walking every object (about 20 ms)."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
