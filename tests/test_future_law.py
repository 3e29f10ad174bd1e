"""The law of the learner's future draw, proven against the row-wise reference.

``learner.sample_future`` draws the (U, K) sign sums of the remaining rounds
directly: hits, then per-context counts (or thinning of the known suffix),
then ``2 * Binomial(n_u, 1/2) - n_u`` per entry.  ``verify.row_wise_future``
draws the same matrix round by round, and ``verify.row_wise_future_pmf``
gives its exact law by convolving the per-round law.  Three routes tie them:

* the exact pmf equals the contract's closed-form pmf (computed here from
  binomial and multinomial coefficients) to 1e-12 on every small shape;
* a chi-square goodness-of-fit test of 20 000 draws of each sampler against
  the exact pmf, at alpha = 1e-3;
* at the acceptance sizes, a two-sample test of every entry's mean and
  variance, in-law sampler vs row-wise reference, at 4.5 sigma.
"""

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from scipy.stats import chi2

from relaxcb import ContextDistribution, ContextSequence, LearnerConfig, sample_future, tune_scale
from relaxcb.verify import row_wise_future, row_wise_future_pmf


def binomial_pmf(k, n, p):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def count_law(t, config, source):
    """(per-context hit counts, probability) pairs of the contract's steps 1-2."""
    n, hit, num_contexts = config.T - t, config.K / config.scale, source.num_contexts
    if isinstance(source, ContextSequence):
        suffix = [int(c) for c in source.ids[t:]]
        m = [suffix.count(x) for x in range(num_contexts)]
        for counts in itertools.product(*(range(mu + 1) for mu in m)):
            yield counts, math.prod(binomial_pmf(c, mu, hit) for c, mu in zip(counts, m))
        return
    probs = source.probs.tolist()
    for hits in range(n + 1):
        for counts in itertools.product(range(hits + 1), repeat=num_contexts):
            if sum(counts) != hits:
                continue
            ways = math.factorial(hits) / math.prod(math.factorial(c) for c in counts)
            yield counts, binomial_pmf(hits, n, hit) * ways * math.prod(p**c for p, c in zip(probs, counts))


def contract_pmf(t, config, source):
    """Closed-form law of ``sample_future``'s matrix, keyed like ``row_wise_future_pmf``."""
    pmf = defaultdict(float)
    for counts, prob in count_law(t, config, source):
        if prob == 0.0:
            continue
        # each entry (u, k) is 2 * heads - n_u with heads ~ Binomial(n_u, 1/2)
        entries = [
            [(2 * heads - c, binomial_pmf(heads, c, 0.5)) for heads in range(c + 1)]
            for c in counts
            for _ in range(config.K)
        ]
        for combo in itertools.product(*entries):
            pmf[tuple(v for v, _ in combo)] += prob * math.prod(q for _, q in combo)
    return dict(pmf)


def make_source(setting, num_contexts, horizon):
    if setting == "transductive":
        return ContextSequence(np.array([(3 * j + 1) % num_contexts for j in range(horizon)]), num_contexts)
    raw = np.arange(1.0, num_contexts + 1.0)
    return ContextDistribution(raw / raw.sum())


@pytest.mark.parametrize("setting", ["iid-sampler", "transductive"])
@pytest.mark.parametrize("num_contexts", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_exact_pmf_matches_closed_form(setting, num_contexts, k):
    horizon = 4
    source = make_source(setting, num_contexts, horizon)
    for scale in (float(k), 1.6 * k):
        config = LearnerConfig(K=k, T=horizon, scale=scale)
        for n in range(horizon + 1):
            t = horizon - n
            exact = row_wise_future_pmf(t, config, source)
            closed = contract_pmf(t, config, source)
            assert set(exact) == set(closed)
            assert max(abs(exact[key] - closed[key]) for key in exact) <= 1e-12
            assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)


def chi_square_statistic(draws, pmf, min_expected=5.0):
    """Pearson's statistic and degrees of freedom, pooling bins expected below ``min_expected``."""
    observed = defaultdict(int)
    for key in draws:
        assert key in pmf, f"draw {key} has probability 0 under the reference law"
        observed[key] += 1
    total = len(draws)
    stat, bins = 0.0, 0
    pooled_obs, pooled_exp = 0, 0.0
    for key, prob in pmf.items():
        expected = total * prob
        if expected < min_expected:
            pooled_obs += observed[key]
            pooled_exp += expected
            continue
        stat += (observed[key] - expected) ** 2 / expected
        bins += 1
    if pooled_exp > 0.0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        bins += 1
    return stat, bins - 1


ALPHA = 1e-3


@pytest.mark.parametrize("sampler", [sample_future, row_wise_future], ids=["in-law", "row-wise"])
@pytest.mark.parametrize("setting", ["iid-sampler", "transductive"])
def test_chi_square_against_exact_pmf(sampler, setting):
    # n=3 remaining rounds, U=2, K=2, hit probability 2/3: 20 000 draws,
    # rejected when the statistic exceeds the chi-square quantile at 1 - ALPHA
    num_contexts, horizon, t = 2, 5, 2
    config = LearnerConfig(K=2, T=horizon, scale=3.0)
    source = make_source(setting, num_contexts, horizon)
    pmf = row_wise_future_pmf(t, config, source)
    rng = np.random.default_rng(np.random.SeedSequence(2026))
    draws = [tuple(sampler(t, config, source, rng).ravel().tolist()) for _ in range(20_000)]
    stat, df = chi_square_statistic(draws, pmf)
    assert df >= 10
    assert stat <= chi2.ppf(1.0 - ALPHA, df), f"chi-square {stat:.1f} on {df} degrees of freedom"


def moments(samples):
    """Per-entry mean, variance and the squared standard errors of both."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    centered = samples - mean
    var = (centered**2).mean(axis=0)
    fourth = (centered**4).mean(axis=0)
    return mean, var, var / n, np.maximum(fourth - var**2, 0.0) / n


@pytest.mark.parametrize("setting", ["iid-sampler", "transductive"])
def test_two_sample_moments_at_acceptance_sizes(setting):
    # K=5, U=10, n=1000 remaining rounds of T=2000, scale 13.67: each of the
    # 50 entries' mean and variance, 20 000 in-law draws vs 4000 row-wise
    # draws, within 4.5 sigma.  With 100 roughly normal statistics a correct
    # sampler fails with probability about 100 * 6.8e-6 < 1e-3.
    k, num_contexts, horizon, t = 5, 10, 2000, 1000
    config = LearnerConfig(K=k, T=horizon, scale=tune_scale(k, horizon, 50))
    rng = np.random.default_rng(np.random.SeedSequence(2027))
    if setting == "transductive":
        source = ContextSequence(rng.integers(0, num_contexts, size=horizon), num_contexts)
    else:
        source = ContextDistribution.uniform(num_contexts)
    in_law = np.array([sample_future(t, config, source, rng) for _ in range(20_000)], float)
    reference = np.array([row_wise_future(t, config, source, rng) for _ in range(4000)], float)
    mean_a, var_a, se_mean_a, se_var_a = moments(in_law)
    mean_b, var_b, se_mean_b, se_var_b = moments(reference)
    z_mean = np.abs(mean_a - mean_b) / np.sqrt(se_mean_a + se_mean_b)
    z_var = np.abs(var_a - var_b) / np.sqrt(se_var_a + se_var_b)
    assert z_mean.max() <= 4.5, f"worst mean z {z_mean.max():.2f}"
    assert z_var.max() <= 4.5, f"worst variance z {z_var.max():.2f}"
