"""``python -m optospring`` runs the ``optospring`` command."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
