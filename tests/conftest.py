"""Shared fixtures.

The four acceptance-scale experiment runs cost minutes each on one core, so
they are session-scoped and shared between the harness tests and the
acceptance gate. Each heavy fixture returns (ExperimentResult, elapsed
seconds) so tests can report wall time alongside the science.
"""

import os
import sys
import threading
import time

# One BLAS thread per process, as CI and the benchmark pin it: the two
# longest fixtures run their trials in two worker processes, and a
# multithreaded BLAS in each would oversubscribe the CPUs (measured: the
# closest fixture took 13.9 s on two workers against 10.3 s serially). It
# must be set before numpy loads; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from bitboundary.harness import (
    DESK_DEFAULTS,
    KIND_CLOSEST,
    KIND_FLIPS,
    KIND_GP_CHECK,
    KIND_GREEDY_VS_EXACT,
    ExperimentConfig,
    run_experiment,
)
from bitboundary import gp, harness, kernel, nets, search
from bitboundary.bitstrings import BitString
from bitboundary.kernel import build_profile
from bitboundary.nets import DeepNet, NetworkConfig

ACCEPTANCE_SEED = 42
# The two longest fixtures run their trials on up to two processes; rows are
# identical at any parallelism (test_11 and the golden pins check this).
FIXTURE_PARALLEL = 2


def acceptance_config(kind, **extra):
    """The acceptance protocol for one experiment kind, seed 42."""
    base = dict(DESK_DEFAULTS[kind])
    base.update(extra)
    return ExperimentConfig(kind=kind, seed=ACCEPTANCE_SEED, **base)


def _timed_run(config):
    t0 = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - t0


def build_linear_net(coeffs, seed=0):
    """A ReLU net computing phi(x) = w . x exactly.

    Construction: relu(w.x) - relu(-w.x) = w.x. The two first-layer rows are
    w and -w, so their preactivations are exact negations bit for bit and the
    recombined output equals the first-layer row sum exactly. With integer
    coefficients the arithmetic is exact, which makes greedy and exact search
    results hand-derivable.
    """
    w = np.asarray(coeffs, dtype=float)
    n = w.size
    config = NetworkConfig(n=n, hidden_widths=(2, 2), seed=seed)
    weights = [
        np.vstack([w, -w]),
        np.eye(2),
        np.array([[1.0, -1.0]]),
    ]
    biases = [np.zeros(2), np.zeros(2), np.zeros(1)]
    return DeepNet(config, weights, biases)


def build_constant_net(n, value, seed=0):
    """A net with phi identically equal to ``value`` (no boundary at all)."""
    config = NetworkConfig(n=n, hidden_widths=(2, 2), sigma_b2=1.0, seed=seed)
    weights = [np.zeros((2, n)), np.zeros((2, 2)), np.zeros((1, 2))]
    biases = [np.zeros(2), np.zeros(2), np.full(1, float(value))]
    return DeepNet(config, weights, biases)


def spy_net_draws(monkeypatch):
    """Record every net draw made (nets._NetDraw), in order, with the thread
    that drew each of its blocks in its block_threads: the helper's or the
    claiming thread. drawing_ahead gives each draw it puts for its helper a
    helper future. Returns the list of draws."""
    draws = []
    real_init, real_block = nets._NetDraw.__init__, nets._NetDraw._draw_block

    def init(self, config, trial_index):
        real_init(self, config, trial_index)
        self.block_threads = []
        draws.append(self)

    def draw_block(self):
        self.block_threads.append(threading.current_thread())
        real_block(self)

    monkeypatch.setattr(nets._NetDraw, "__init__", init)
    monkeypatch.setattr(nets._NetDraw, "_draw_block", draw_block)
    return draws


def put_ahead(draws):
    """Which of spy_net_draws' draws were put for the helper."""
    return [draw.helper is not None for draw in draws]


# the functions perfbench's tracer wraps, whose single span stack holds only
# calls made on the main thread: (owner, attribute)
TRACED = (
    (nets, "sample_network"),
    (nets, "forward_batch"),
    (nets, "forward_from_first_layer"),
    (nets, "forward_with_first_layer_cache"),
    (search, "greedy_search"),
    (search, "random_flip_walk"),
    (kernel, "profile_for_config"),
    (kernel.KernelProfile, "evaluate"),
    (gp, "build_ensemble"),
    (gp, "sample_block"),
    (BitString, "digest"),
    (harness, "write_rows_csv"),
)


def spy_traced_calls(monkeypatch):
    """Record the thread of every call of a TRACED function, wherever a
    bitboundary module binds it. Returns {"nets.sample_network": [thread,
    ..], ..}, filled as the calls come."""
    threads = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("bitboundary")]
    for owner, attr in TRACED:
        original = vars(owner)[attr]
        calls = threads.setdefault(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", [])

        def recording(*args, _original=original, _calls=calls, **kwargs):
            _calls.append(threading.current_thread())
            return _original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, recording)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)
    return threads


def off_main(threads):
    """How many of the recorded threads are not the main thread."""
    return sum(t is not threading.main_thread() for t in threads)


@pytest.fixture(scope="session")
def default_profile():
    """The default kernel profile: sigma_w2=2, sigma_b2=0, two ReLU layers."""
    return build_profile()


@pytest.fixture(scope="session")
def closest_run():
    """Acceptance-scale nearest-boundary run (also feeds the |phi| binning)."""
    return _timed_run(acceptance_config(KIND_CLOSEST, parallel=FIXTURE_PARALLEL))


@pytest.fixture(scope="session")
def flips_run():
    return _timed_run(acceptance_config(KIND_FLIPS, parallel=FIXTURE_PARALLEL))


@pytest.fixture(scope="session")
def gp_run():
    return _timed_run(acceptance_config(KIND_GP_CHECK))


@pytest.fixture(scope="session")
def gve_run():
    return _timed_run(acceptance_config(KIND_GREEDY_VS_EXACT))
