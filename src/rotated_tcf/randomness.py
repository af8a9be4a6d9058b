"""Empirical min-entropy diagnostics for prover outputs.

For each fresh context (pk, ct) the second-round answer d' at challenge
b' = 0 is sampled repeatedly; the guessing probability is the mean over
contexts of the per-context maximum outcome frequency, and
h_min = -log2(guessing_prob).  A score/entropy report flags the combination
(success well above 3/4, h_min near 0) that is excluded for sound classical
strategies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .params import Params
from .protocol_q import prover_round1, run_experiment, verifier_round1
from .sampling import RngStream
from .stats import Stats

MIN_REPLAYS = 10


@dataclass(frozen=True)
class EntropyEstimate:
    guessing_prob: float
    # The lowest per-context guessing probability, min over contexts: the
    # context where d' was hardest to guess, not min-entropy's worst case
    # (that would be the highest).  The digests pin the name and the value.
    worst_context_prob: float
    contexts: int
    samples_per_context: int
    rewound: bool   # True when round 2 was replayed from stored state

    @property
    def h_min(self) -> float:
        if self.guessing_prob >= 1.0:
            return 0.0
        return -math.log2(self.guessing_prob)


def estimate_minentropy(prover, params: Params, contexts: int, replays: int,
                        stream: RngStream) -> EntropyEstimate:
    """A classical prover is rewound: one first response per context, then
    `replays` fresh second responses at b' = 0.  The quantum simulator
    cannot be rewound (measuring consumes the qubit), so it is re-run from
    scratch per replay and the estimate is flagged accordingly."""
    if replays < MIN_REPLAYS:
        raise ValueError(f"need at least {MIN_REPLAYS} replays per context")
    if contexts < 1:
        raise ValueError("contexts must be >= 1")
    probs = []
    for c in range(contexts):
        ctx = stream.derive("entropy-context", c)
        vstate, (pk, ct) = verifier_round1(params, ctx.derive("verifier"))
        witness = (vstate.keypair.s, vstate.keypair.e)
        ones = 0
        if not prover.quantum:
            _, _, mem = prover_round1(prover, pk, ct, witness,
                                      ctx.derive("prover"))
            for r in range(replays):
                ones += int(prover.second_response(0, mem,
                                                   ctx.derive("replay", r)))
        else:
            for r in range(replays):
                ps = ctx.derive("full-run", r)
                _, _, mem = prover_round1(prover, pk, ct, witness, ps)
                ones += int(prover.second_response(0, mem, ps))
        probs.append(max(ones, replays - ones) / replays)
    return EntropyEstimate(
        guessing_prob=sum(probs) / len(probs),
        worst_context_prob=min(probs),
        contexts=contexts,
        samples_per_context=replays,
        rewound=not prover.quantum,
    )


WARN_SCORE_MARGIN = 0.02
WARN_HMIN_FLOOR = 0.05


@dataclass(frozen=True)
class ScoreEntropyReport:
    stats: Stats
    entropy: EntropyEstimate

    @property
    def warning(self) -> bool:
        """Success well above 3/4 with h_min near 0: sound classical
        strategies never show it."""
        return (self.stats.estimate - 0.75 > WARN_SCORE_MARGIN
                and self.entropy.h_min < WARN_HMIN_FLOOR)

    def lines(self) -> list[str]:
        out = [
            f"success rate: {self.stats.summary()}",
            (f"h_min(d' | context, b'=0) = {self.entropy.h_min:.4f} bits "
             f"(guessing prob {self.entropy.guessing_prob:.4f}, "
             f"{self.entropy.contexts} contexts x "
             f"{self.entropy.samples_per_context} replays, "
             f"{'rewound' if self.entropy.rewound else 'independent full runs'})"),
        ]
        if self.warning:
            out.append(
                "WARNING: success exceeds 3/4 while d' carries almost no "
                "fresh randomness; no sound classical strategy can do this."
            )
        return out


def score_entropy_report(prover, params: Params, trials: int,
                         stream: RngStream, contexts: int,
                         replays: int) -> ScoreEntropyReport:
    """The estimate comes first, so that its refusal of `contexts` or
    `replays` costs no trials; the streams are labelled, so the order
    changes no draw."""
    entropy = estimate_minentropy(prover, params, contexts, replays,
                                  stream.derive("entropy"))
    stats = run_experiment(params, prover, trials, stream.derive("score"))
    return ScoreEntropyReport(stats=stats, entropy=entropy)
