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

from .attack import (AttackReport, LrModel, attack_dataset, cross_entropy,
                     gradient, predict, predict_bits, prediction_rate,
                     sigmoid, train_logistic)
from .bits import HexFormatError, format_hex_word, parse_hex_word
from .core import (ArbiterChain, DelayParams, LinearModel, MultiBitPuf,
                   all_challenges, derive_seed, linear_disagreements,
                   random_challenges, sample_chain, sample_multibit, to_linear)
from .crp import (CrpSet, DatasetError, collect_crps, generate_crps,
                  import_hex_rows, load_crps, save_crps, split_crps)
from .features import FeatureKind, feature_matrix, phi, raw
from .metrics import (QualityReport, bit_aliasing, evaluate_quality,
                      reliability, uniformity, uniqueness)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bits
    "HexFormatError", "format_hex_word", "parse_hex_word",
    # features
    "FeatureKind", "feature_matrix", "phi", "raw",
    # core
    "ArbiterChain", "DelayParams", "LinearModel", "MultiBitPuf",
    "all_challenges", "derive_seed", "linear_disagreements",
    "random_challenges", "sample_chain", "sample_multibit", "to_linear",
    # crp
    "CrpSet", "DatasetError", "collect_crps", "generate_crps",
    "import_hex_rows", "load_crps", "save_crps", "split_crps",
    # attack
    "AttackReport", "LrModel", "attack_dataset", "cross_entropy", "gradient",
    "predict", "predict_bits", "prediction_rate", "sigmoid", "train_logistic",
    # metrics
    "QualityReport", "bit_aliasing", "evaluate_quality", "reliability",
    "uniformity", "uniqueness",
]
