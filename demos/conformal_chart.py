"""Conformal disc charts: the same equation in a different gauge.

The solver is chart-agnostic: on a Poincare disc chart (K = -1) the
constant 1/2 is still the exact solution, and a non-radial perturbed
family exercises the general conformal machinery (curvature from the
conformal factor, geodesic distances by shooting).
"""

import numpy as np

from lorentz_embed.grid import PolarGrid, chart_arrays
from lorentz_embed.metric import ConformalDiscMetric
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed.geodesics import distance_conformal

# --- Poincare chart: constant solution in any gauge -------------------------
metric = ConformalDiscMetric(1.0, domain_radius=0.9)
grid = PolarGrid(48, 32, 0.7, kind="disc")
problem = DirichletProblem(metric, grid)
# the constant start b is a subsolution where 1 - 2 b (-K) >= 0
margin = float((1.0 - 2.0 * problem.boundary_value * (-chart_arrays(metric, grid).K)).min())
print(f"constant-start margin on the disc: {margin:.3e} (equality case)")

field = solve_dirichlet(problem)
print(f"Poincare chart solve: {field.iterations} iterations, "
      f"max |u - 1/2| = {np.abs(field.u.values - 0.5).max():.3e}")

# at eps = 0 (the default) the chart's pair distance is the closed form
d_shoot = distance_conformal(metric, (0.3, 0.1), np.array([-0.2]), np.array([0.4]))
d_exact = metric.pair_distance(0.3, 0.1, -0.2, 0.4)
print(f"shooting distance vs closed form: {abs(float(d_shoot[0]) - float(d_exact)):.2e}")

# --- a non-radial pinched family --------------------------------------------
pert = ConformalDiscMetric(1.0, domain_radius=0.9, eps=0.2)
b = pert.bounds
print(f"\nperturbed chart: curvature pinched in [-{b.c2:.4f}, -{b.c1:.4f}]")

grid = PolarGrid(48, 32, 0.7, kind="disc")
problem = DirichletProblem(pert, grid)
print(f"boundary datum: {problem.boundary_value:.6f}")
field = solve_dirichlet(problem)
u = field.u.values
print(f"solved in {field.iterations} iterations; "
      f"u in [{u.min():.6f}, {u.max():.6f}] "
      f"(bounds demand [{problem.boundary_value:.6f}, {1 / (2 * b.c1):.6f}])")
osc = (u.max(axis=1) - u.min(axis=1)).max()
print(f"angular oscillation of u: {osc:.2e} (genuinely non-radial)")

# the chart's certified distance bounds, which place and contain the audits'
# probe balls: e^{-|eps|/2} times the Poincare distance bounds the shot one
# from below, and the rim of the solved disc lies within two closed forms
d_pert = distance_conformal(pert, (0.3, 0.1), np.array([-0.2]), np.array([0.4]))
print(f"pair bound {float(pert.pair_distance(0.3, 0.1, -0.2, 0.4)):.6f} "
      f"<= shot distance {float(d_pert[0]):.6f}")
lower, upper = pert.rim_distance(0.0, grid.radius)
print(f"centre to the rim of the solved disc: in [{lower:.4f}, {upper:.4f}]")
