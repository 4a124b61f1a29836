"""A genuinely pinched surface: exhaustion, audits, and the embedded graph.

The radial family K(r) = -(1 + r^2/(1+r^2)) interpolates between curvature
-1 at the center and -2 at infinity.  The solution of the equation is no
longer constant: the script runs the expanding-ball continuation, audits
all interior estimates (including the cutoff construction and the Hessian
eigenvalue ceiling at probe points), and reconstructs the embedding, whose
graph is trapped between the two bounding hyperboloids.
"""

import os

import numpy as np

from lorentz_embed import make_radial_from_curvature
from lorentz_embed.exhaustion import make_schedule, run_exhaustion
from lorentz_embed.estimates import run_estimate_suite
from lorentz_embed.embed import build_embedding, export_graph, write_obj

OUT = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT, mode=0o755, exist_ok=True)


def K(r):
    r = np.asarray(r, dtype=float)
    return -(1.0 + r * r / (1.0 + r * r))


def Kp(r):
    r = np.asarray(r, dtype=float)
    return -(2.0 * r / (1.0 + r * r) ** 2)


def Kpp(r):
    r = np.asarray(r, dtype=float)
    return -((2.0 - 6.0 * r * r) / (1.0 + r * r) ** 3)


metric = make_radial_from_curvature(K, 8.5, k_prime=Kp, k_double_prime=Kpp)
b = metric.bounds
print(f"pinching constants: c1 = {b.c1:.4f}, c2 = {b.c2:.4f}; "
      f"log-curvature derivative bounds c3 = {b.c3:.4f}, c4 = {b.c4:.4f}")

# --- expanding-ball continuation -------------------------------------------
schedule = make_schedule((2.0, 3.0, 4.0, 5.0, 6.0), l_obs=1.0,
                         nodes_per_unit=16, n_theta=48, tol=1e-6)
result = run_exhaustion(schedule, metric)
print("\n  l    delta        u range                  max |grad u|")
for s in result.steps:
    print(f"  {s.l:g}  {s.delta:.3e}  [{s.min_u:.6f}, {s.max_u:.6f}]  {s.max_grad:.4f}")
print(f"interior deltas monotone: {result.deltas_monotone}")

# --- audit the final ball ---------------------------------------------------
field = result.fields[-1]
grid = field.u.grid
probes = [(int(np.searchsorted(grid.q1, r)), j)
          for r, j in ((2.0, 0), (3.0, 16), (4.0, 32))]
report = run_estimate_suite(field, probes=probes, r0_list=(1.0,))
print("\nestimate audit on the l = 6 ball:")
for rec in report.records:
    tag = "" if rec.passed else "  <-- FAIL"
    print(f"  {rec.id:<44s} margin {rec.margin:+.3e}{tag}")
print(f"mandatory estimates pass: {report.mandatory_pass()}")

# --- embed the observation ball ---------------------------------------------
gbar, dev, emb, audit = build_embedding(field, l_obs=2.0)
print(f"\ncurvature defect of the rescaled metric: {gbar.max_defect:.3e}")
print(f"pullback metric relative error: {audit.pullback_rel_err:.3e}")
print(f"pinching margins (cone / lower / upper): "
      f"{audit.pinching_margin_cone:.3e} / {audit.pinching_margin_lower:.3e} / "
      f"{audit.pinching_margin_upper:.3e}")
print(f"shape-form norm |A| max: {audit.a_norm_max:.5f}")
print(f"curvature compatibility residual: {audit.gauss_residual:.3e}")

mesh = export_graph(emb)
path = os.path.join(OUT, "pinched_graph.obj")
write_obj(mesh, path)
print(f"\nwrote {mesh.vertices.shape[0]} vertices to {path}")
print("the graph height satisfies sqrt(1/c2 + x1^2 + x2^2) <= Z <= "
      "sqrt(1/c1 + x1^2 + x2^2) pointwise")
