"""The constancy circle (1 - t + t s)^2 + s^2 = 4 for admissible metrics.

An admissible deformation of the Hopf metric has pointwise constant
holomorphic sectional curvature for D^t_s exactly when (t, s) lies on this
circle, and the constant is -(4 tz A Abar zbar + 2 Re tz A z)/xi_A.
"""

import numpy as np

import gauduchon as gd
from gauduchon.cli import scan_ts

spec = gd.hopf_spec(2, 0.5, A=[[0.2, 0.0], [0.0, 0.1]])
chart = gd.admissible_chart(spec)
pts = gd.sample_points(chart, 12, seed=3)

print("admissibility violations:", gd.validate_admissible(spec) or "none")

print("\n   (t, s)        circle_residual   constancy_residual   max |c - reference|")
cells = [(-1.0, 0.0), (3.0, 0.0), (-1.0, 2.0), (0.0, np.sqrt(3.0)),
         (1.0, 0.0), (0.0, 0.0), (2.0, 1.0)]
# One table for all cells: each point's four basis tensors are built once.
c, res = gd.constancy_table(chart, cells, pts)
ref = np.array([gd.admissible_hsc_reference(spec, p) for p in pts])
for ts, c_row, res_row in zip(cells, c, res):
    tag = "on circle " if abs(gd.circle_residual(*ts)) < 1e-9 else "off circle"
    print(f"  ({ts[0]:+.1f},{ts[1]:+.3f}) {tag}  {gd.circle_residual(*ts):+8.3f}"
          f"        {res_row.max():10.2e}        {np.abs(c_row - ref).max():10.2e}")

# A coarse scan over the plane shows the circle as a valley of the residual.
rows = scan_ts({"chart": "admissible", "n": 2, "a": 0.5,
                "multipliers": [[0.5, 0], [0.5, 0]],
                "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]]},
               (-2.0, 4.0, 13), (-2.5, 2.5, 11), samples=5, seed=0)
near = [r[2] for r in rows if abs(r[3]) < 0.05]
far = [r[2] for r in rows if abs(r[3]) > 1.0]
print(f"\nscan over a 13 x 11 grid: near-circle cells max residual "
      f"{max(near):.2e}, off-circle cells min residual {min(far):.2e}")
