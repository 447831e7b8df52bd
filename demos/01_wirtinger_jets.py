"""Wirtinger jets: exact second-order derivatives of chart fields, checked
against the finite-difference oracle.

Fields are expression trees over z_i and zbar_i; jets propagate exactly, so
the only numerical error in downstream curvature comes from linear algebra.
"""

import numpy as np

import gauduchon as gd

# |z|^2 on C^2 and its jet at (1, 0): gradient (zbar_1, zbar_2), complex
# Hessian = identity.  It is a quadratic form (1/2) w^T H w over
# w = (z, zbar), one leaf whose jet is exact in closed form; its text lists
# the upper triangle of H.
f = gd.abs2(2)
jet = gd.eval_jet(f, [1, 0])
print("field:", f.serialize())
print("value:", jet.value)
print("d (holomorphic gradient):", jet.d)
print("ddbar (complex Hessian):\n", jet.ddbar.real)

# log |z|^2 is the potential behind the standard Hopf metric.
g = gd.log(gd.abs2(2))
jet = gd.eval_jet(g, [1, 0])
print("\nlog|z|^2 at (1,0): d =", jet.d, " ddbar diag =", np.diag(jet.ddbar).real)

# The finite-difference oracle redoes everything with central stencils in the
# 4 real coordinates.  Agreement ~1e-8 on smooth O(1) fields.
rng = np.random.default_rng(0)
field = gd.exp(0.3 * (gd.z(0) + gd.zbar(0))) / (gd.const(2.0) + gd.abs2(2))
pt = rng.standard_normal(2) + 1j * rng.standard_normal(2)
exact = gd.eval_jet(field, pt)
approx = gd.fd_jet(field, pt)
worst = max(np.max(np.abs(np.atleast_1d(getattr(exact, n))
                          - np.atleast_1d(getattr(approx, n))))
            for n in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"))
print(f"\nexact vs finite differences on a random field: {worst:.2e}")

# Fields round-trip through the prefix-string grammar used in config files.
text = field.serialize()
print("\nserialized:", text)
print("round-trip value matches:", abs(gd.parse_field(text)(pt) - field(pt)) < 1e-15)
