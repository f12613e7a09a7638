"""conset: a constituent calculus of hereditarily finite sets.

Canonically interned set handles, the replacement/composition algebra,
covering ("constituent structure") diagrams with canonical certificates and
realization, two numeral schemes with structural arithmetic, positional
tuples, and the top/bottom/middle fusion calculus — plus an expression
language and CLI over all of it.
"""

from .errors import *
from .kernel import *
from .algebra import *
from .structure import *
from .numerals import *
from .tuples import *
from .fusion import *
from .corpus import generate as corpus_generate
from .expr import evaluate
from . import algebra, errors, fusion, kernel, numerals, structure, tuples

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *kernel.__all__,
    *algebra.__all__,
    *structure.__all__,
    *numerals.__all__,
    *tuples.__all__,
    *fusion.__all__,
    "corpus_generate",
    "evaluate",
]
