#!/usr/bin/env python3
"""Streaming realizations of the norm-mixture distribution.

Three ways to draw from dQ = (s/2S + 1/2) dP on a finite stream:
exact inverse-CDF sampling, rejection with an upper estimate of the score mass,
and a probability-proportional-to-size weighted reservoir.
"""

import numpy as np

import regsamp as rs
from regsamp.sampler import MIXTURE, CategoricalSampler, atom_probabilities, score_array


def main():
    rng = rs.derive_rng(7)
    inst = rs.make_instance(np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0]]),
                            np.array([0.5, 0.3, 0.2]))
    q = atom_probabilities(inst, "norm", MIXTURE)
    print("atoms with scores", score_array("norm", inst.atoms))
    print("target mixture   ", np.round(q, 4))

    # exact draws through the inverse CDF
    idx = CategoricalSampler(q).draw(rng, 100_000)
    print("inverse-CDF draws", np.round(np.bincount(idx, minlength=3) / idx.size, 4))

    # score-mass estimation, then rejection against an inflated estimate:
    # doubling the fed score keeps every acceptance probability below one
    est = rs.estimate_S(inst, "norm", eps=0.1, delta=0.05, seed=8)
    print(f"\nestimated score mass {est.s_hat:.4f} from {est.m_used} uniform draws")
    s_cap = 2.0 * est.s_hat
    stream_idx = CategoricalSampler(inst.masses).draw(rs.derive_rng(9), 100_000)
    accepted = rs.rejection_stream((inst.atoms[i] for i in stream_idx), "norm",
                                   s_hat=s_cap, seed=10)
    got = np.zeros(3)
    for a in accepted:
        got[int(np.argmin(np.linalg.norm(inst.atoms - a, axis=1)))] += 1
    target = atom_probabilities(inst, "norm", MIXTURE, s_hat=s_cap)
    print(f"rejection kept {len(accepted)} of {len(stream_idx)}")
    print("accepted mix     ", np.round(got / got.sum(), 4))
    print("estimate mixture ", np.round(target, 4))
    rew = rs.weights_from_estimate(rs.draw_iid(inst, "norm", 5, seed=11), est.s_hat)
    print("reweighted w'    ", np.round(rew.w, 4))

    # single-pass weighted reservoir: inclusion proportional to score
    scores = score_array("norm", inst.atoms)
    hits = np.zeros(3)
    trials = 20_000
    for t in range(trials):
        chosen = rs.weighted_reservoir(((i, scores[i]) for i in range(3)), 1,
                                       seed=t)
        hits[chosen[0]] += 1
    print("\nreservoir pick rates", np.round(hits / trials, 4))
    print("score proportions   ", np.round(scores / scores.sum(), 4))


if __name__ == "__main__":
    main()
