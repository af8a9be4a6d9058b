"""Pinned SHA-256 digests of protocol outputs at fixed seeds.

Each case renders one experiment as JSON lines and hashes them.  The hex
values were recorded once and must never change: any refactor or speed-up
has to reproduce every transcript, verdict and sample bit for bit.
"""
import hashlib
import json

import numpy as np
import pytest

from rotated_tcf import protocol_q, puzzle, regev, rsp
from rotated_tcf.params import desk_preset
from rotated_tcf.sampling import master_stream
from rotated_tcf.transcripts import transcript_to_json

DIGEST_SEED = "d1e5c0de" * 8


def _root(case: str):
    return master_stream(DIGEST_SEED).derive("digest", case)


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _zq(v) -> list:
    return [str(int(x)) for x in np.asarray(v).reshape(-1).tolist()]


def _poq(prover):
    def lines(params, stream):
        out = []
        protocol_q.run_experiment(
            params, prover, 6, stream,
            transcript_sink=lambda t: out.append(transcript_to_json(t)),
            include_pk=True)
        return out
    return lines


def _rewinding(params, stream):
    provers = [protocol_q.BaselineProver(), protocol_q.RandomProver(),
               protocol_q.DeterministicProver(1, "copy")]
    out = []
    for variant in ("C", "C'", "C''"):
        for prover in provers:
            wins = [protocol_q.rewinding_experiment(
                        variant, params, prover, 1,
                        stream.derive(variant, prover.name, i)).successes
                    for i in range(6)]
            out.append(_line({"variant": variant, "prover": prover.name,
                              "wins": wins}))
    return out


def _rsp(convention, zero_noise=False):
    def lines(params, stream):
        out = []
        for i in range(16):
            run = stream.derive("run", i)
            alpha = int(run.derive("alpha").gen.integers(0, params.q))
            outcome, beta, _ = rsp.run_rsp_once(
                params, alpha, run, sign_convention=convention,
                force_zero_noise=zero_noise)
            out.append(_line({
                "alpha": str(alpha), "aborted": outcome.aborted,
                "b": outcome.b, "beta_units": str(beta.units),
                "beta_basis": beta.basis,
                "target_units": None if outcome.aborted
                else str(outcome.target.units)}))
        return out
    return lines


def _puzzle(params, stream):
    out = []
    for i in range(10):
        inst = stream.derive("instance", i)
        p, k, witness = puzzle.puzzle_G(params, inst.derive("gen"))
        b_prime = i % 2
        verdict = puzzle.solve_one(p, k, witness, b_prime,
                                   inst.derive("solve"), solver="honest")
        out.append(_line({"w": str(p.ct.w), "b_prime": b_prime,
                          "verdict": verdict}))
    out.append(_line({"passed": puzzle.threshold_repetition(
        params, 6, 0.8, stream.derive("repetition"))}))
    return out


def _distinguishing(params, stream):
    adversaries = {"zero": lambda pk, ct: 0,
                   "w-parity": lambda pk, ct: int(ct.w) & 1,
                   "a0-parity": lambda pk, ct: int(ct.a[0]) & 1}
    out = []
    for name, adversary in adversaries.items():
        for trapdoor in (False, True):
            for mode in ("real-b", "always-0"):
                stats = regev.distinguishing_game(
                    params, adversary, 5,
                    stream.derive(name, trapdoor, mode),
                    use_trapdoor_keys=trapdoor, mode=mode)
                out.append(_line({"adversary": name, "trapdoor": trapdoor,
                                  "mode": mode, "wins": stats.successes}))
    return out


def _blindness(params, stream):
    out = []
    for which in ("D_x", "D_x_tilde", "D"):
        for x in (0, 17, params.q - 1):
            A, v, a, w = rsp.blindness_sampler(which, x, params,
                                               stream.derive(which, x))
            out.append(_line({"which": which, "x": x, "A": _zq(A),
                              "v": _zq(v), "a": _zq(a), "w": str(int(w))}))
    return out


CASES = {
    "poq-honest": _poq(protocol_q.HonestQuantumProver()),
    "poq-baseline": _poq(protocol_q.BaselineProver()),
    "poq-random": _poq(protocol_q.RandomProver()),
    "rewinding": _rewinding,
    "rsp-additive": _rsp("additive"),
    "rsp-subtractive": _rsp("subtractive"),
    "rsp-zero-noise": _rsp("additive", zero_noise=True),
    "puzzle-honest": _puzzle,
    "distinguishing-game": _distinguishing,
    "blindness-sampler": _blindness,
}

DIGESTS = {
    "blindness-sampler":
        "f9665eaff0ae1ce2becf8fbc866eb8416c9d7a608892a62bf032993537950a4f",
    "distinguishing-game":
        "3de7cfd93c0c542211f4adc2f045171553c2eb713b2dc22d50e102e6642a2446",
    "poq-baseline":
        "b0392f0575724a7b04138c2c019657921dacf683aac28ed1fd70d1e430f37c44",
    "poq-honest":
        "235da0708c7769900c851a71394164b80846260fa4aebb54ad2ca92991d20387",
    "poq-random":
        "9399ffd69ee4ded0d4410bef81ecc2c08b5a332c8818e8a2105df0dee8029ddc",
    "puzzle-honest":
        "99f8f373bd1b21b15be5a5234b04279673165a98984ca716fd82e0d480544cf9",
    "rewinding":
        "a207dd3066f71628ab2ae673d07fff35d5e59cebaa12363d5d6fb44ff763541b",
    "rsp-additive":
        "d3bcdc58ce468e27be009e1c1d485cc44fba0cef49dfa23339560857c873247e",
    "rsp-subtractive":
        "b27f020730b43859d9678606c8d407325e4397036648ad37a02b13f5d0e0e0b3",
    "rsp-zero-noise":
        "0dabb9903180844c113449527134136f7a367e3d0d84db270d48359a22d7feb8",
}


@pytest.fixture(scope="module")
def params():
    return desk_preset()


@pytest.mark.parametrize("case", sorted(CASES))
def test_digest(case, params):
    lines = CASES[case](params, _root(case))
    data = "".join(line + "\n" for line in lines).encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[case]
