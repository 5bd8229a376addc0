"""Each sampled success count against its law (ROADMAP item 13, tests only).

A sampled point counts k successes in n shots, and in law k ~ Binomial(n, p_succ_exact). The check flags a point when
either exact binomial tail at p_succ_exact is below ALPHA, fixed at 1e-9 before looking at any data. The tails are
log-gamma sums, with no normal approximation.
"""

import math

import pytest
from conftest import TWO_TERM
from test_golden import golden_files, golden_rows

import zenosim.zeno as zeno
from zenosim import build_extended, parse_hamiltonian, run_sampled

ALPHA = 1e-9


def _log(p):
    return math.log(p) if p > 0 else -math.inf


def binomial_tails(k, n, p):
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p), each an exact sum of log-gamma terms."""
    log_p, log_q = _log(p), _log(1.0 - p)

    def log_pmf(i):
        powers = (i * log_p if i else 0.0) + ((n - i) * log_q if n - i else 0.0)
        return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + powers

    def total(indices):
        logs = [log_pmf(i) for i in indices]
        top = max(logs)
        return 0.0 if top == -math.inf else math.exp(top) * math.fsum(math.exp(v - top) for v in logs)

    return total(range(k + 1)), total(range(k, n + 1))


def flagged(point):
    """Whether either tail of the point's success count at p_succ_exact is below ALPHA."""
    k = round(point["p_succ_sampled"] * point["shots"])
    return min(binomial_tails(k, point["shots"], point["p_succ_exact"])) < ALPHA


@pytest.mark.parametrize("k,n,p,expected", [
    (0, 1, 0.25, (0.75, 1.0)),
    (1, 1, 0.25, (1.0, 0.25)),
    (2, 4, 0.5, (11 / 16, 11 / 16)),
    (3, 3, 1.0, (1.0, 1.0)),
    (2, 3, 1.0, (0.0, 1.0)),
    (0, 3, 0.0, (1.0, 1.0)),
])
def test_binomial_tails_are_exact(k, n, p, expected):
    assert binomial_tails(k, n, p) == pytest.approx(expected, rel=1e-12, abs=0.0)


SAMPLED_GOLDEN = [name for name in golden_files("zeno1", "zeno2", "mub") if "sampled" in name]


def test_every_sampled_golden_file_is_checked():
    assert len(SAMPLED_GOLDEN) == 18


@pytest.mark.parametrize("name", SAMPLED_GOLDEN)
def test_sampled_golden_rows_follow_their_law(name):
    rows = golden_rows(name)
    assert len(rows) == 2
    for row in rows:
        point = {key: float(row[key]) for key in ("p_succ_exact", "p_succ_sampled")} | {"shots": int(row["shots"])}
        assert not flagged(point), row


def _sampled_point():
    point = run_sampled(build_extended(parse_hamiltonian(TWO_TERM)), 1.0, 10**4, shots=2000, seed=0)
    return {"p_succ_exact": point.p_succ_exact, "p_succ_sampled": point.p_succ_sampled, "shots": point.shots}


def test_true_sampler_is_not_flagged():
    assert not flagged(_sampled_point())


def test_true_sampler_is_not_flagged_across_seeds():
    # 100 points of 2000 shots, at base seeds 2000 k so that no shot's generator is reused: with two tails below
    # ALPHA each, some point is flagged with probability below 100 * 2 * 1e-9 = 2e-7.
    sys = build_extended(parse_hamiltonian(TWO_TERM))
    for k in range(100):
        point = run_sampled(sys, 1.0, 100, shots=2000, seed=2000 * k)
        assert not flagged({"p_succ_exact": point.p_succ_exact, "p_succ_sampled": point.p_succ_sampled,
                            "shots": point.shots}), k


def test_planted_bias_is_flagged(monkeypatch):
    # Each step survives with 1 - 1e-5 times its probability, so over 10^4 steps p_succ drops by about 10 %.
    survival = zeno._survival
    monkeypatch.setattr(zeno, "_survival", lambda *args: survival(*args) * (1.0 - 1e-5))
    point = _sampled_point()
    assert point["p_succ_sampled"] < 0.95 * point["p_succ_exact"]
    assert flagged(point)
