from . import engine, optim
from .engine import *  # noqa: F403
from .optim import *  # noqa: F403

__all__ = engine.__all__ + optim.__all__
