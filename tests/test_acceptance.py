"""Acceptance gate: twelve go/no-go checks at their stated tolerances.

Every check prints exactly one verdict line outside pytest capture so the
gate summary is visible in any invocation. Wall times of the heavy runs are
reported for reference; assertions are on the science, not the clock,
because wall time depends on the host.
"""

from itertools import combinations

import numpy as np
import pytest

from bitboundary.activations import Activation, get_activation, register_activation
from bitboundary.harness import (
    KIND_CLOSEST,
    KIND_FLIPS,
    KIND_GP_CHECK,
    KIND_GREEDY_VS_EXACT,
    ExperimentConfig,
    _net_and_input,
    run_experiment,
)
from bitboundary.kernel import (
    build_profile,
    default_grid,
    f_recursion,
    q_recursion,
)
from bitboundary.nets import flip_rows, forward_from_first_layer, forward_with_first_layer_cache
from bitboundary.stats import mean_stderr
from bitboundary.theory import conditional_flip_probability, expected_h_star, ln_count_flipped

from conftest import ACCEPTANCE_SEED


@pytest.fixture
def gate(capsys):
    """One always-visible verdict line, then the assertion."""

    def check(name, ok, detail):
        line = f"[gate] {name}: {'PASS' if ok else 'FAIL'} | {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return check


def test_01_closest_prefactor(closest_run, gate):
    """Mean nearest-boundary distance fits a*sqrt(n/ln n) with a in
    [0.36, 0.45] (n in 64..512, 200 trials per n, seed 42)."""
    result, elapsed = closest_run
    a = result.fit.coefficient
    free = result.details["free_intercept_fit"]
    ok = 0.36 <= a <= 0.45
    gate(
        "closest prefactor",
        ok,
        f"a={a:.4f} +/- {result.fit.stderr:.4f} vs [0.36, 0.45]; "
        f"free-intercept slope={free['slope']:.4f} +/- {free['slope_stderr']:.4f} "
        f"intercept={free['intercept']:.3f}; "
        f"through-origin fit absorbs the O(1) offset still present at n<=512, "
        f"inflating a; elapsed={elapsed:.0f}s (budget 900s)",
    )


def test_02_flips_slope(flips_run, gate):
    """Mean random-flip walk length grows as s*n with s in [0.28, 0.38],
    above the 1/(4 F'(1)) = 0.25 lower bound (1000 trials per n)."""
    result, elapsed = flips_run
    s = result.fit.coefficient
    lower = result.details["heuristic_slope_lower_bound"]
    ok = 0.28 <= s <= 0.38 and s >= lower
    gate(
        "flips slope",
        ok,
        f"s={s:.4f} +/- {result.fit.stderr:.4f} vs [0.28, 0.38], "
        f"lower bound {lower:.2f}, r2={result.fit.r_squared:.4f}; "
        f"elapsed={elapsed:.0f}s (budget 600s)",
    )


def test_03_kernel_shape(gate):
    """Every ReLU profile in the parameter sweep satisfies t <= F(t) <= 1,
    F nondecreasing, and 0 < F'(1) <= 1 on its full grid."""
    slack = 1e-12
    worst_low, worst_high, worst_mono = np.inf, -np.inf, np.inf
    fp1_range = []
    for sw2, sb2 in ((2.0, 0.0), (1.0, 1.0), (0.5, 2.0)):
        for layers in (1, 2, 5):
            prof = build_profile(sw2, sb2, layers, "relu")
            t = default_grid()
            f = prof.evaluate(t)
            worst_low = min(worst_low, float(np.min(f - t)))
            worst_high = max(worst_high, float(np.max(f)))
            worst_mono = min(worst_mono, float(np.min(np.diff(f))))
            fp1_range.append(prof.f_prime_1)
    ok = (
        worst_low >= -slack
        and worst_high <= 1.0 + slack
        and worst_mono >= -slack
        and all(0.0 < v <= 1.0 + slack for v in fp1_range)
    )
    gate(
        "kernel shape",
        ok,
        f"9 profiles: min(F-t)={worst_low:.3e}, max F={worst_high:.12f}, "
        f"min dF={worst_mono:.3e}, F'(1) in "
        f"[{min(fp1_range):.4f}, {max(fp1_range):.4f}]",
    )


def test_04_taylor_ratio(default_profile, gate):
    """|F(1-u) - 1 + F'(1) u| / u^{3/2} stays bounded (no growth) as u -> 0."""
    us = np.array([5e-2, 2e-2, 1e-2, 5e-3, 2e-3])
    f = np.asarray(default_profile.evaluate(1.0 - us))
    ratios = np.abs(f - 1.0 + default_profile.f_prime_1 * us) / us**1.5
    ok = ratios.max() <= 0.65 and ratios.max() / ratios.min() <= 1.1
    gate(
        "taylor 3/2 ratio",
        ok,
        f"ratios in [{ratios.min():.4f}, {ratios.max():.4f}] over u in "
        f"[{us.min():g}, {us.max():g}], spread {ratios.max() / ratios.min():.4f}",
    )


def test_05_quadrature_vs_closed_form(gate):
    """The generic quadrature path reproduces the closed-form ReLU kernel to
    1e-6 absolute on the 2001-point overlap grid, every layer."""
    register_activation(
        Activation(
            "relu_quadrature_gate",
            lambda x: np.maximum(x, 0.0),
            lambda x: (x > 0),
        )
    )
    grid = np.linspace(-1.0, 1.0, 2001)
    stacks = [
        f_recursion(2.0, 0.0, q_recursion(2.0, 0.0, 2, act), grid, act)[1]
        for act in map(get_activation, ("relu", "relu_quadrature_gate"))
    ]
    gap = float(np.max(np.abs(stacks[1] - stacks[0])))
    ok = gap <= 1e-6
    gate(
        "quadrature agreement",
        ok,
        f"max |generic - closed| = {gap:.3e} over {grid.size} points x "
        f"{len(stacks[0])} layers (tol 1e-6)",
    )


def test_06_gp_covariance(gp_run, gate):
    """Width-512 network covariance matches Q*F(t) at the overlap menu within
    5 standard errors, and the GP sampler agrees with its own kernel."""
    result, elapsed = gp_run
    net_z = result.details["max_abs_net_z"]
    gp_z = result.details["max_abs_gp_z"]
    trials = result.rows[0][11]
    ok = net_z <= 5.0 and gp_z <= 5.0
    gate(
        "gp covariance",
        ok,
        f"max |net z|={net_z:.3f}, max |gp z|={gp_z:.3f} over "
        f"{len(result.rows)} overlaps, {trials} samples; elapsed={elapsed:.0f}s",
    )


def test_07_greedy_vs_exact(gve_run, gate):
    """Greedy never beats exact on paired instances and trails it by at most
    0.5 flips on average at every n (500 pairs per n)."""
    result, elapsed = gve_run
    violations = result.details["total_violations"]
    means = {e["n"]: e["mean"] for e in result.per_n}
    ok = violations == 0 and all(m <= 0.5 for m in means.values())
    gaps = " ".join(f"n={n}:{m:.3f}" for n, m in sorted(means.items()))
    gate(
        "greedy vs exact",
        ok,
        f"violations={violations}, mean gaps {gaps}, "
        f"max_gap={result.details['max_gap']}, "
        f"censored={sum(result.details['censored'].values())}; "
        f"elapsed={elapsed:.0f}s",
    )


def test_08_ln_count_monotone(default_profile, gate):
    """Exact ln N is decreasing in n below the critical prefactor (a=0.25)
    and increasing above it (a=1.0), through n = 10^6 at z=1."""
    ns = [10**3, 10**4, 10**5, 10**6]
    dec = [ln_count_flipped(default_profile, n, 0.25, 1.0) for n in ns]
    inc = [ln_count_flipped(default_profile, n, 1.0, 1.0) for n in ns]
    ok = all(b < a for a, b in zip(dec, dec[1:])) and all(
        b > a for a, b in zip(inc, inc[1:])
    )
    gate(
        "ln N monotonicity",
        ok,
        f"a=0.25: {dec[0]:.2f} -> {dec[-1]:.2f} decreasing; "
        f"a=1.0: {inc[0]:.2f} -> {inc[-1]:.2f} increasing",
    )


def test_09_expected_h_star(gate):
    """The expected boundary-distance scale at n=784, F'(1)=1 is 4.33
    within 0.01."""
    v = expected_h_star(784, 1.0)
    ok = abs(v - 4.33) <= 0.01
    gate("expected h*", ok, f"expected_h_star(784, 1) = {v:.5f} vs 4.33 +/- 0.01")


def test_10_phi_binned_linearity(closest_run, gate):
    """Binned |phi| vs distance at n=512 is linear (r2 >= 0.9) with slope
    within 15% of sqrt(n/ln n) / (2 sqrt(Q F'(1)))."""
    result, _ = closest_run
    binned = result.details["phi_binned"]
    r2 = binned["fit"]["r2"]
    ratio = binned["slope_over_predicted"]
    ok = r2 >= 0.9 and abs(ratio - 1.0) <= 0.15
    gate(
        "|phi| linearity",
        ok,
        f"n={binned['n']}: slope={binned['fit']['coefficient']:.4f} vs "
        f"predicted {binned['predicted_slope']:.4f} "
        f"(ratio {ratio:.4f}, tol 15%), r2={r2:.4f}, {len(binned['bins'])} bins",
    )


def test_11_parallel_determinism(tmp_path, gate):
    """Row CSVs are byte-identical between serial and 3-way parallel
    execution for every experiment kind."""
    menu = (
        (KIND_CLOSEST, dict(n_values=(12, 16), trials=4)),
        (KIND_FLIPS, dict(n_values=(12,), trials=6)),
        (KIND_GP_CHECK, dict(n_values=(16,), trials=8)),
        (KIND_GREEDY_VS_EXACT, dict(n_values=(6, 8), trials=4)),
    )
    mismatched = []
    total = 0
    for kind, args in menu:
        blobs = []
        for parallel in (1, 3):
            out = tmp_path / f"{kind}-p{parallel}.csv"
            run_experiment(
                ExperimentConfig(
                    kind=kind,
                    seed=ACCEPTANCE_SEED,
                    out_csv=str(out),
                    parallel=parallel,
                    **args,
                )
            )
            blobs.append(out.read_bytes())
        total += len(blobs[0])
        if blobs[0] != blobs[1]:
            mismatched.append(kind)
    ok = not mismatched
    gate(
        "parallel determinism",
        ok,
        f"4 kinds, {total} CSV bytes compared"
        + (f"; mismatches: {mismatched}" if mismatched else ", all byte-identical"),
    )


@pytest.mark.parametrize("width, deficit", [(256, False), (16, True)])
def test_12_per_string_flip_law(width, deficit, default_profile, gate):
    """The proof's per-string law P_n(h, |z|), the chance that a string at
    distance h from x changes class given phi(x) = sqrt(Q) z, against finite
    networks: n = 16, 2000 seed-42 instances, every string at h = 1 and 2.
    Per instance, the fraction of those strings that change class minus
    P_n(h, |phi(x)| / sqrt(Q)). Bounds fixed before the run: at width 256,
    where the GP law should hold, the mean lies within 4 standard errors of
    0 at both h. At width 16 it lies below -4 standard errors at both h: a
    finite-width net changes class less often than the law says, and the
    check must be able to see that."""
    n, trials = 16, 2000
    config = ExperimentConfig(
        kind=KIND_CLOSEST, n_values=(n,), trials=trials, seed=ACCEPTANCE_SEED, widths=(width,) * 2
    )
    shells = {h: np.array(list(combinations(range(n), h))) for h in (1, 2)}
    diffs = {h: [] for h in shells}
    for trial in range(trials):
        net, x = _net_and_input(config, n, trial)
        phi0, z1 = forward_with_first_layer_cache(net, x)
        delta = flip_rows(net, x, slice(None))
        z = abs(phi0) / np.sqrt(default_profile.q)
        for h, idx in shells.items():
            phis = forward_from_first_layer(net, z1 + delta[idx].sum(axis=1))
            changed = np.mean((phis >= 0.0) != (phi0 >= 0.0))  # sign(0) = +1
            p = conditional_flip_probability(default_profile, n, h, z)
            diffs[h].append(changed - p)
    stats = {h: mean_stderr(d) for h, d in diffs.items()}
    zs = {h: mean / se for h, (mean, se) in stats.items()}
    if deficit:
        ok, bound = all(v < -4.0 for v in zs.values()), "z < -4 (the deficit is visible)"
    else:
        ok, bound = all(abs(v) <= 4.0 for v in zs.values()), "|z| <= 4"
    shown = "; ".join(
        f"h={h}: {mean:+.4f} +/- {se:.4f} (z {zs[h]:+.2f})" for h, (mean, se) in stats.items()
    )
    gate(
        f"per-string flip law, width {width}",
        ok,
        f"n={n}, {trials} instances, observed - P_n: {shown}; bound {bound}",
    )
