#!/usr/bin/env python3
"""Drawing from the norm-mixture distribution, with an exact or an estimated score mass.

Exact inverse-CDF draws from dQ = (s/2S + 1/2) dP, then an estimate of the
score mass S from mass-weighted draws and the mixture weights it gives.
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

    # score-mass estimation, then mixture weights against the estimate
    est = rs.estimate_S(inst, "norm", eps=0.1, delta=0.05, seed=8)
    print(f"\nestimated score mass {est.s_hat:.4f} from {est.m_used} uniform draws")
    rew = rs.weights_from_estimate(rs.draw_iid(inst, "norm", 5, seed=11), est.s_hat)
    print("reweighted w'    ", np.round(rew.w, 4))


if __name__ == "__main__":
    main()
