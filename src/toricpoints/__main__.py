"""`python -m toricpoints`: the toricpoints command line."""
from .cli import main
raise SystemExit(main())
