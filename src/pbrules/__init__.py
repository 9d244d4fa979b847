"""Participatory budgeting rules engine and analysis toolkit.

Deterministic implementations of greedy cost welfare and the Method of
Equal Shares (with completion by budget increase and by a greedy top-up
on the leftover budget), exact-rational money arithmetic end to end, PaBuLib file I/O,
outcome metrics and a corpus analysis pipeline with a CLI.

Each module's ``__all__`` is its public API; this package republishes them.
"""

__version__ = "0.1.0"

# each ``from .x import *`` also binds the submodule ``x`` read below
from .model import *
from .pabulib import *
from .rules import *
from .metrics import *
from .stats import *
from .analysis import *

__all__ = ["__version__"]
__all__ += model.__all__
__all__ += pabulib.__all__
__all__ += rules.__all__
__all__ += metrics.__all__
__all__ += stats.__all__
__all__ += analysis.__all__
