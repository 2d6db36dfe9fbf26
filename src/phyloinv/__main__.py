"""``python -m phyloinv``: the command-line interface of ``phyloinv.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
