"""puflab: arbiter-chain simulation, CRP datasets and modeling attacks.

The package is organised bottom-up:

* ``bits``     the hex codec of fixed-width bit vectors
* ``features`` challenge encodings (raw and parity)
* ``core``     delay-race oracle, its linear reduction, folded chain banks
* ``crp``      dataset generation, persistence, splitting, import
* ``attack``   logistic-regression attacks from scratch
* ``metrics``  uniformity / uniqueness / reliability / bit-aliasing
* ``cli``      the ``puflab`` command line tool
"""

from . import attack, bits, core, crp, features, metrics
from .attack import *  # noqa: F401,F403
from .bits import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .crp import *  # noqa: F401,F403
from .features import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"] + [
    name for module in (bits, features, core, crp, attack, metrics)
    for name in module.__all__]
