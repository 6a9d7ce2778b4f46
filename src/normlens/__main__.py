"""Process entry point: ``python -m normlens`` and the installed ``normlens`` script.

A run builds no reference cycles whose size depends on its input, so the
cyclic garbage collector would only re-scan live objects. ``run`` turns it
off before the CLI is imported. When the command returns, ``run`` flushes
stdout and stderr and ends the process with ``os._exit``: the OS reclaims
the memory, so interpreter finalization (the final collection, module
teardown and atexit handlers, of which normlens registers none) is skipped.
So ``run`` does not return once a command has finished; an exception that
leaves the command (argparse's help and usage exits, an interrupt) exits
the normal way. ``cli.main``, the in-process entry, leaves the collector
alone and returns its exit code.
"""

from __future__ import annotations

import gc
import os
import sys

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import NoReturn


def run() -> NoReturn:
    gc.disable()
    from .cli import main

    code = main()
    # cli.main has flushed stdout and turned a failed write into exit 4, and
    # stderr never changes the exit code, so a flush that fails here is ignored.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
