"""Process entry point: ``python -m normlens`` and the installed ``normlens`` script.

A run builds no reference cycles whose size depends on its input, so the
cyclic garbage collector would only re-scan live objects. ``run`` turns it
off before the CLI is imported and freezes the heap before returning, so
that the collection at interpreter shutdown walks nothing either.
``cli.main``, the in-process entry, leaves the collector alone.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
