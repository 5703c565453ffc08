"""Robust linear regression under growing data heterogeneity.

Each agent fits a linear model while an adversarial input shift y, bounded to
the unit ball, contaminates every sample. The heterogeneity knob alpha
scatters the agents' feature means: alpha = 0 is the i.i.d. case, larger
alpha pushes the local objectives apart. Quality is measured by the robust
loss: the worst-case total loss over feasible shifts (a sum over agents, so
it scales with m).

With nearly homogeneous data the tracked and uncorrected methods tie; with
strongly heterogeneous data gradient tracking wins.

Run: python3 demos/03_robust_regression_heterogeneity.py
"""

from fedmm import (
    AlgoConfig,
    FEDGDA_GT,
    LOCAL_SGDA,
    Iterate,
    RlrGenSpec,
    gen_rlr,
    robust_loss,
    run_algorithm,
)

m, d, n, seed, K, rounds = 10, 5, 50, 11, 10, 300
# stiffer data (larger alpha) needs a smaller shared stepsize
cases = [(1.0, 5e-3), (5.0, 1e-3), (20.0, 1e-4)]

print(f"m={m}, d={d}, n={n} samples/agent, K={K}, {rounds} rounds")
print(f"{'alpha':>6} {'eta':>8} {'LocalSGDA':>14} {'FedGDAGT':>14} {'gap':>9}")
for alpha, eta in cases:
    problem = gen_rlr(RlrGenSpec(m=m, d=d, n_i=n, alpha=alpha, seed=seed))
    init = Iterate.zeros(d, d)
    uncorrected = run_algorithm(
        problem, AlgoConfig(LOCAL_SGDA, eta, eta, K, rounds, init)
    )
    tracked = run_algorithm(
        problem, AlgoConfig(FEDGDA_GT, eta, eta, K, rounds, init)
    )
    loss_u = robust_loss(problem, uncorrected.final.x).value
    loss_t = robust_loss(problem, tracked.final.x).value
    rel = (loss_u - loss_t) / loss_u
    print(f"{alpha:>6} {eta:>8} {loss_u:>14.4f} {loss_t:>14.4f} {rel:>8.2%}")

print()
print("at alpha=1 the two methods are nearly tied; once the data is"
      " heterogeneous, tracking attains the lower robust loss")
