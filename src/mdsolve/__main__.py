"""``python -m mdsolve``: the same command line as the ``mdsolve`` script."""

from mdsolve.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
