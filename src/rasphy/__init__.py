"""rasphy: rates-across-sites phylogenetics.

Simulation of the generalized Poisson model with random per-site rate
scaling, and reconstruction of the tree topology from leaf data alone
via site clustering, statistic binning, and distorted-metric
agglomeration, with exact small-instance oracles for verification.
"""

# each module's ``__all__`` is the one list of its public names
from .binning import *  # noqa: F401,F403
from .clustering import *  # noqa: F401,F403
from .distances import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .pipeline import *  # noqa: F401,F403
from .reconstruct import *  # noqa: F401,F403
from .trees import *  # noqa: F401,F403

__version__ = "0.1.0"
