"""``python -m posmap``: the ``posmap`` command, without an installed script."""

from .cli import entry

if __name__ == "__main__":
    entry()
