"""Heavy-tailed p-value combination tests.

Global tests on dependent p-values via regularly varying tailed
transforms, baseline tests (Bonferroni, Fisher), a closed-testing
shortcut for individual-hypothesis decisions, and a seeded Monte Carlo
engine for validity/power/equivalence experiments.

Each module's ``__all__`` is its public list.  The package's is
``__version__``, then the lists of combine, closed_testing, distributions
and simulate.
"""

__version__ = "0.1.0"

from . import closed_testing, combine, distributions, simulate
from .closed_testing import *  # noqa: F403
from .combine import *  # noqa: F403
from .distributions import *  # noqa: F403
from .simulate import *  # noqa: F403

__all__ = ["__version__", *combine.__all__, *closed_testing.__all__, *distributions.__all__,
           *simulate.__all__]
