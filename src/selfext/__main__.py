"""Run the command-line interface: python -m selfext ..."""
from .cli import main

if __name__ == "__main__":
    main()
