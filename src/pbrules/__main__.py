"""``python -m pbrules``: the command line of the ``pbrules`` script."""

from pbrules.cli import main

if __name__ == "__main__":
    main()
