"""`python -m posiflag`: the command line of `python -m posiflag.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
