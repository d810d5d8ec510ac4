"""``python -m rbdesign``: the same command as the ``rbdesign`` script."""

from .cli import main

if __name__ == "__main__":
    main()
