import math

import pytest

from rotated_tcf.protocol_q import (BaselineProver, HonestQuantumProver,
                                    RandomProver)
from rotated_tcf.randomness import (EntropyEstimate, ScoreEntropyReport,
                                    estimate_minentropy, score_entropy_report)
from rotated_tcf.stats import Stats


def test_replay_and_context_validation(stream, desk):
    with pytest.raises(ValueError):
        estimate_minentropy(BaselineProver(), desk, 5, 9, stream)
    with pytest.raises(ValueError):
        estimate_minentropy(BaselineProver(), desk, 0, 100, stream)


def test_constant_prover_has_zero_minentropy(stream, desk):
    est = estimate_minentropy(BaselineProver(), desk, 10, 50, stream)
    assert est.guessing_prob == 1.0
    assert est.h_min == 0.0
    assert est.rewound


def test_coin_flip_prover_has_near_full_minentropy(stream, desk):
    est = estimate_minentropy(RandomProver(), desk, 20, 200, stream)
    # guessing prob of a fair coin from 200 samples: 1/2 + O(1/sqrt(200))
    assert 0.5 <= est.guessing_prob <= 0.58
    assert est.h_min > 0.8


def test_honest_prover_is_rerun_not_rewound(stream, desk):
    est = estimate_minentropy(HonestQuantumProver(), desk, 5, 10, stream)
    assert not est.rewound
    assert 0.5 <= est.guessing_prob <= 1.0


def test_h_min_formula():
    est = EntropyEstimate(guessing_prob=0.85, worst_context_prob=0.85,
                          contexts=1, samples_per_context=100, rewound=True)
    assert abs(est.h_min - (-math.log2(0.85))) < 1e-12
    assert abs(est.h_min - 0.2345) < 0.0005


def test_h_min_never_negative_zero():
    est = EntropyEstimate(guessing_prob=1.0, worst_context_prob=1.0,
                          contexts=1, samples_per_context=10, rewound=True)
    assert str(est.h_min) == "0.0"


def _flat_entropy(p):
    return EntropyEstimate(guessing_prob=p, worst_context_prob=p,
                           contexts=10, samples_per_context=100, rewound=True)


def test_warning_rule_fires_on_impossible_combination():
    # success 0.80 with no fresh second-round randomness: excluded classically
    report = ScoreEntropyReport(Stats(1600, 2000), _flat_entropy(1.0))
    assert report.warning
    assert any("WARNING" in line for line in report.lines())


def test_warning_rule_quiet_for_sound_strategies():
    # deterministic baseline: high guessing prob but only 3/4 success
    assert not ScoreEntropyReport(Stats(1500, 2000),
                                  _flat_entropy(1.0)).warning
    # strong success with plenty of entropy is the honest quantum profile
    assert not ScoreEntropyReport(Stats(1707, 2000),
                                  _flat_entropy(0.55)).warning


def test_score_entropy_report_baseline(stream, desk):
    report = score_entropy_report(BaselineProver(), desk, 300, stream,
                                  contexts=10, replays=20)
    assert not report.warning
    lo, hi = report.stats.ci
    assert lo <= 0.75 <= hi
    assert report.entropy.h_min == 0.0
    assert len(report.lines()) == 2
