"""Boundary distances of random deep networks on the Hamming cube.

A random fully connected network phi maps bit strings x in {-1,+1}^n to a
real output, classifying them by sign(phi(x)). In the wide limit phi is a
Gaussian process with kernel K(x, y) = Q * F(x.y / n), and everything about
decision-boundary geometry follows from Q and F: the distance from a random
string to the nearest differently classified one concentrates around
|phi(x)| / (2 sqrt(Q F'(1))) * sqrt(n / ln n), while flipping random bits
takes order n steps to cross the boundary.

The package provides the kernel recursions (closed form for ReLU, validated
quadrature otherwise), exact GP sampling, finite networks with cheap
single-bit-flip evaluation, greedy/exact/random-walk boundary searches, the
closed-form predictors, and a reproducible experiment harness with a CLI.
"""

from ._version import VERSION as __version__
from .activations import Activation, get_activation
from .bitstrings import BitString
from .errors import (
    BitBoundaryError,
    BudgetExceededError,
    ConfigError,
    FactorizationError,
    NumericalFaultError,
    QuadratureError,
)
from .gp import GpEnsemble, build_ensemble, sample, sample_block
from .harness import ExperimentConfig, ExperimentResult, run_experiment
from .kernel import KernelProfile, build_profile, psi
from .nets import DeepNet, NetworkConfig, forward, forward_batch, sample_network
from .search import (
    SearchResult,
    exact_search,
    greedy_search,
    random_flip_walk,
)
from .theory import (
    conditional_flip_probability,
    expected_h_star,
    h_n,
    h_star,
    heuristic_closest_bound,
    heuristic_flip_bound,
    ln_count_asymptotic,
    ln_count_flipped,
    theory_report,
)

__all__ = [
    "__version__",
    "Activation",
    "BitBoundaryError",
    "BitString",
    "BudgetExceededError",
    "ConfigError",
    "DeepNet",
    "ExperimentConfig",
    "ExperimentResult",
    "FactorizationError",
    "GpEnsemble",
    "KernelProfile",
    "NetworkConfig",
    "NumericalFaultError",
    "QuadratureError",
    "SearchResult",
    "build_ensemble",
    "build_profile",
    "conditional_flip_probability",
    "exact_search",
    "expected_h_star",
    "forward",
    "forward_batch",
    "get_activation",
    "greedy_search",
    "h_n",
    "h_star",
    "heuristic_closest_bound",
    "heuristic_flip_bound",
    "ln_count_asymptotic",
    "ln_count_flipped",
    "psi",
    "random_flip_walk",
    "run_experiment",
    "sample",
    "sample_block",
    "sample_network",
    "theory_report",
]
