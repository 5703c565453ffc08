"""Gradient tracking vs plain local updates on a heterogeneous quadratic federation.

Generates 20 agents whose quadratic objectives differ in scale by two orders
of magnitude (agent i's data shrinks like 1/i), then compares three methods
at the same stepsize and round budget:

* GDA            -- one centralized step per communication round,
* LocalSGDA      -- K uncorrected local steps, then averaging,
* FedGDAGT       -- K tracking-corrected local steps, then averaging.

The tracked method converges geometrically to the exact solution while the
uncorrected one stalls on a biased plateau. The exact linear round map of the
tracked scheme is also computed, giving a certified per-round contraction
factor, and the auto-selected stepsize comes from minimizing its norm.

Run: python3 demos/02_quadratic_federation.py
"""

import numpy as np

from fedmm import (
    AlgoConfig,
    FEDGDA_GT,
    GDA,
    LOCAL_SGDA,
    Iterate,
    QuadraticGenSpec,
    auto_eta_fedgda,
    closed_form_minimax,
    fedgda_round_map,
    gen_quadratic,
    run_algorithm,
)

spec = QuadraticGenSpec(m=20, d=50, n_i=500, seed=7)
problem = gen_quadratic(spec)
star = closed_form_minimax(problem)
init = Iterate.zeros(problem.p, problem.q)

K, eta, rounds = 20, 1e-4, 400
print(f"m={spec.m} agents, d={spec.d}, shared eta={eta}, K={K}, {rounds} rounds")
print(f"certified round-map norm at this eta: "
      f"{np.linalg.norm(fedgda_round_map(problem, eta, K), 2):.4f}")
print()

runs = [
    (algo, run_algorithm(problem, AlgoConfig(algo, eta, eta, k, rounds, init), z_star=star))
    for algo, k in ((GDA, 1), (LOCAL_SGDA, K), (FEDGDA_GT, K))
]

checkpoints = (0, 25, 50, 100, 200, 400)
print(f"{'round':>6}" + "".join(f"{name:>16}" for name, _ in runs))
for t in checkpoints:
    row = f"{t:>6}"
    for _, trace in runs:
        row += f"{trace.records[t].gap_sq:>16.4e}"
    print(row)

print()
sel = auto_eta_fedgda(problem, K)
print(f"auto-selected stepsize for the tracked method: eta={sel.eta:.3e} "
      f"(round-map norm {sel.round_map_norm:.3f})")
fast = run_algorithm(problem, AlgoConfig(FEDGDA_GT, sel.eta, sel.eta, K, 40, init),
                     z_star=star)
print(f"with it, the squared optimality gap after 40 rounds: "
      f"{fast.records[-1].gap_sq:.3e}")
