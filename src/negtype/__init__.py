"""Negative-type analysis of finite metric spaces.

Decide strict/non-strict p-negative type, bracket the supremal exponent,
and construct or verify nontrivial p-polygonal equalities.
"""

from . import errors, metric, polyeq, quadform
from .errors import *
from .metric import *
from .polyeq import *
from .quadform import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = errors.__all__ + metric.__all__ + quadform.__all__ + polyeq.__all__
