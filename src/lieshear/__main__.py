"""The process entry of `python -m lieshear` and the `lieshear` script."""
import gc
import sys


def run() -> int:
    """Run one CLI command in this process and return its exit code.

    The modules loaded at start-up live until the process ends, so the cyclic
    collector is kept off while they load and then freezes them: the command
    runs with the collector on, and neither its collections nor the
    interpreter's exit trace the start-up heap.  In-process callers use
    `lieshear.cli.main`, which leaves the collector alone.
    """
    gc.disable()
    from lieshear.cli import main
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
