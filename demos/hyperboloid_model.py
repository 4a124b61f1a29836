"""The constant-curvature model, end to end.

For K = -1 the equation det(Hess u + g)/det g = -K (|grad u|^2 + 2u) has
the exact solution u = 1/2, and the reconstructed surface is the unit
imaginary sphere x3^2 - (x1^2 + x2^2) = 1 in Lorentz-Minkowski space.
Every stage of the pipeline can therefore be compared against closed
forms; this script walks through all of them.
"""

import math
import os

import numpy as np

from lorentz_embed.grid import PolarGrid
from lorentz_embed.metric import make_hyperbolic
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed.estimates import run_estimate_suite
from lorentz_embed.cli import write_obj
from lorentz_embed.embed import build_embedding, export_graph

OUT = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT,mode=0o755, exist_ok=True)

# --- solve on one geodesic ball -------------------------------------------
metric = make_hyperbolic(1.0)
grid = PolarGrid(128, 128, 2.0)
problem = DirichletProblem(metric, grid)
print(f"boundary datum 1/(2 max(-K)) = {problem.boundary_value}")

field = solve_dirichlet(problem)
print(f"Newton iterations: {field.iterations} "
      f"(the constant start is already the discrete solution)")
print(f"max |u - 1/2| = {np.abs(field.u.values - 0.5).max():.3e}")

# --- audit the a priori estimates -----------------------------------------
report = run_estimate_suite(field, probes=[(64, 0)], r0_list=(1.5,))
print("\nestimate audit:")
for rec in report.records:
    print(f"  {rec.id:<40s} margin {rec.margin:+.3e}")
assert report.mandatory_pass()

# --- reconstruct and verify the embedding ---------------------------------
gbar, dev, emb, audit = build_embedding(field, l_obs=1.5)
print(f"\nrescaled-metric curvature defect max |K+1| = {gbar.max_defect:.3e}")
print(f"developing-map path defect = {dev.path_defect:.3e}")

rows = dev.rows
R, T = grid.mesh()
closed_form = np.stack([
    np.sinh(R[:rows]) * np.cos(T[:rows]),
    np.sinh(R[:rows]) * np.sin(T[:rows]),
    np.cosh(R[:rows]),
], axis=-1)
print(f"max |X - hyperboloid parametrization| = {np.abs(emb.X - closed_form).max():.3e}")
print(f"pullback metric relative error = {audit.pullback_rel_err:.3e}")
print(f"graph pinching saturation (both bounds tight for C1 = C2 = 1): "
      f"{audit.pinching_saturation:.3e}")
print(f"|A| = {audit.a_norm_max:.8f} (umbilic surface: sqrt(2) = {math.sqrt(2):.8f})")

# --- export the graph mesh -------------------------------------------------
mesh = export_graph(emb)
path = os.path.join(OUT, "hyperboloid_cap.obj")
write_obj(mesh, path)
print(f"\nwrote {mesh.vertices.shape[0]} vertices / {mesh.faces.shape[0]} faces "
      f"to {path}")
