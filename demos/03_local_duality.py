"""The torsion/completion pair: local cohomology, derived completion, and
the lim/lim^1 sequence of Greenlees and May.

Run with:  python demos/03_local_duality.py
"""

import json

from lodua import (FPModule, FPObj, GradedObject, IdealData, Rational,
                   Telescope, TelescopeQuotient, derived_completion, gamma,
                   gm_ses_check, local_cohomology, local_homology_Ls,
                   make_ring, settings, stable_koszul_complex)

Z = make_ring({"base": "Z"})
d = IdealData(Z, [5])
free = FPModule.free(Z, 1)
prufer = TelescopeQuotient(free, Z.el(5))      # Z/5^infty
tel = Telescope(free, Z.el(5))                 # Z[1/5]

print("== the torsion side at I = (5) ==")
print("H^0(Z) =", local_cohomology(d, free, 0))
print("H^1(Z) =", local_cohomology(d, free, 1), " -- the Prufer module")
sk = stable_koszul_complex(d)
print("stable Koszul terms:", json.dumps(sk.describe()["terms"]["-1"]))

print("\n== the completion side ==")
lam = derived_completion(d, free)
print("Lambda(Z)          =", lam)
lam = derived_completion(d, GradedObject(Z, {0: prufer}))
print("Lambda(Z/5^infty)  =", lam, " -- shifted to degree 1")
print("Lambda(Q)          =", derived_completion(d, GradedObject(Z, {0: Rational(Z, 1)})))
print("Lambda(Z[1/5])     =", derived_completion(d, GradedObject(Z, {0: tel})))

print("\n== derived functors of completion and the lim/lim^1 sequence ==")
print("L_0(Z)         =", local_homology_Ls(d, FPObj(free), 0))
print("L_1(Z/5^infty) =", local_homology_Ls(d, prufer, 1))
rep = gm_ses_check(d, prufer, 1)
print("sequence at s = 1:", rep["status"], "--", rep["exactness"])

print("\n== over k[x,y] at (x, y) ==")
Q = make_ring({"base": "Q", "vars": ["x", "y"]})
dxy = IdealData(Q, ["x", "y"])
A = FPModule.free(Q, 1)
print("H^0 = H^1 = 0; H^2:", local_cohomology(dxy, A, 2).basis)
with settings(K=6, lag=3, precision=6):   # bounds for this block only
    print("Lambda(A) =", derived_completion(dxy, A))
