"""Generalization-bound calculators and the Monte-Carlo complexity estimator.

The learned minimax model only sees empirical risk; these tools bound how far
the population risk can sit above it. The slack decomposes into a Rademacher
complexity term, a concentration term driven by per-agent loss bounds M_i and
the cover size of the adversary's feasible set, and a Lipschitz term paying
for the cover resolution. When the loss takes finitely many values, a
VC-dimension argument caps the complexity in closed form.

The Rademacher complexity itself is estimated empirically over a finite
candidate set of models: draw random sign vectors, correlate them (and their
negations) with every candidate's per-sample losses, and average the best
correlation. A finite-class (Massart) cap bounds the complexity, the
estimate's expectation.

Run: python3 demos/04_generalization_bounds.py
"""

import numpy as np

from fedmm import (
    BoundInputs,
    FiniteHypothesisSample,
    bound_terms,
    estimate_rademacher,
    massart_bound,
    population_risk_bound,
    vc_rademacher_bound,
    worst_case_risk_bound,
)

m, n = 5, 200

# --- estimate complexity over a finite candidate set --------------------
rng = np.random.default_rng(0)
num_candidates = 40
loss_table = rng.uniform(0.0, 1.0, size=(num_candidates, m * n))
sample = FiniteHypothesisSample(loss_table, m=m, n=n)
est = estimate_rademacher(sample, num_sigma_draws=20_000, seed=1)
print(f"empirical Rademacher complexity over {num_candidates} candidates:")
print(f"  estimate = {est.value:.5f} +- {est.stderr:.5f}  "
      f"(finite-class cap {massart_bound(sample):.5f})")
print()

# --- plug it into the risk bounds ----------------------------------------
inputs = BoundInputs(
    m=m,
    n=n,
    M_i=[1.0] * m,          # per-agent bound on |loss| at the y of interest
    cover_size=64,          # cardinality of an eps-cover of the adversary set
    delta=0.05,             # confidence level 1 - delta
    epsilon=0.05,           # cover resolution
    L_y=0.5,                # Lipschitz constant of the loss in y
    rademacher=est.value,
)
empirical_risk = 0.42
terms = bound_terms(inputs)
print("population-risk bound at a fixed (x, y):")
print(f"  empirical risk        {empirical_risk:.5f}")
for name, value in terms.items():
    print(f"  {name:<21} {value:.5f}")
print(f"  total                 "
      f"{population_risk_bound(inputs, empirical_risk):.5f}")
print()

worst_empirical = 0.57
print(f"worst-case-over-y bound (same slack, worst-case inputs): "
      f"{worst_case_risk_bound(inputs, worst_empirical):.5f}")
print()

# --- closed-form cap for finite-valued losses ----------------------------
sum_M_sq = inputs.sum_M_i_sq
for d in (2, 8, 32):
    cap = vc_rademacher_bound(m, n, d, sum_M_sq)
    print(f"VC-dimension {d:>2}: complexity cap {cap:.5f}")
print()
print("more samples per agent shrink both the concentration term and the cap:")
for bigger_n in (200, 800, 3200):
    scaled = BoundInputs(m=m, n=bigger_n, M_i=inputs.M_i, cover_size=64,
                         delta=0.05, epsilon=0.05, L_y=0.5,
                         rademacher=est.value)
    print(f"  n = {bigger_n:>4}: concentration term "
          f"{bound_terms(scaled)['concentration_term']:.5f}")
