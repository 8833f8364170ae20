from . import core, generators, io, ordering
from .core import *  # noqa: F403
from .generators import *  # noqa: F403
from .io import *  # noqa: F403
from .ordering import *  # noqa: F403

__all__ = core.__all__ + generators.__all__ + io.__all__ + ordering.__all__
