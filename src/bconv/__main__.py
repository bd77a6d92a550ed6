"""``python -m bconv``: the same command-line interface as the ``bconv`` script."""

from .cli import main

if __name__ == "__main__":
    main()
