#!/usr/bin/env python3
"""Relative-error guarantee on a random instance.

Draws norm-mixture coresets of growing size and reports the worst relative
error over a query set that mixes random probes with the origin.  The error
should shrink roughly like 1/sqrt(m), and every weight stays in (0, 2].
"""

import regsamp as rs


def main():
    dim, k = 8, 16.0
    inst = rs.gaussian_instance(400, dim, seed=1, uniform_masses=False)
    spec = rs.ObjectiveSpec(rs.make_loss("logistic"), rs.make_reg("l2sq"), k)
    consts = rs.compute_constants(inst, "norm", spec.loss)
    print(f"instance: n={inst.n}, d={inst.dim}, B={consts.B:.3f}, "
          f"S={consts.S:.3f}, D={consts.D:.3f}")

    m_theory = rs.recommended_sample_size("norm", spec.loss, spec.reg, k,
                                          eps=0.25, delta=0.1, constants=consts)
    print(f"general-rule size at eps=0.25, delta=0.1 (constant c_abs=1): {m_theory}")
    m_bd = rs.recommended_sample_size("bounded-derivative", spec.loss, spec.reg, k,
                                      eps=0.25, delta=0.1,
                                      constants=rs.compute_constants(inst, "sqnorm",
                                                                     spec.loss))
    print(f"bounded-derivative rule size: {m_bd}")

    queries = rs.build_query_set(dim, k, seed=2, n_gaussian=40, n_sparse=40)
    print(f"\n{'m':>6}  {'max rel err':>12}  {'mean weight':>11}")
    for m in (50, 200, 800, 3200, 12800):
        samples = rs.draw_iid(inst, "norm", m, seed=100 + m)
        err, _, _ = rs.max_relative_error(inst, spec, samples, queries)
        mean_w = float(samples.w.mean())
        print(f"{m:>6}  {err:>12.5f}  {mean_w:>11.4f}")

    report = rs.estimate_opt(inst, spec, restarts=4, seed=3)
    print(f"\nestimated optimum {report.opt_value:.5f} inside "
          f"[{report.analytic_lower:.5f}, {report.analytic_upper:.5f}]")


if __name__ == "__main__":
    main()
