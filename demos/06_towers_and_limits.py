"""Inverse systems and their exact lim/lim^1: recognition, refusal, the
pro-triviality test, and weak proregularity as ``proreg-check`` answers it.

Run with:  python demos/06_towers_and_limits.py
"""

from lodua import (FPModule, FPObj, TelescopeQuotient, Tower, is_pro_trivial,
                   lim_lim1, make_ring)
from lodua.cli import run
from lodua.modules import identity_map

Z = make_ring({"base": "Z"})
free = FPModule.free(Z, 1)

print("== recognized towers ==")
t = Tower.adic(free, [5])
res = lim_lim1(t)
print(f"adic(Z, (5)):        lim = {res.lim!r}, lim1 = {res.lim1!r}")
print(f"                     basis: {res.basis}")

t = Tower.mult(FPObj(free), Z.el(5))
res = lim_lim1(t)
print(f"mult(Z, 5):          lim = {res.lim!r}, lim1 nonzero: "
      f"{not res.lim1.is_zero()}  (the completion cokernel Z_5/Z)")

prufer = TelescopeQuotient(free, Z.el(5))
t = Tower.tor(prufer, [Z.el(5)], 1)
res = lim_lim1(t)
print(f"Tor_1 tower of Z/5^infty: lim = {res.lim!r}  "
      "(stages Z/5^k with surjective transitions)")

print("\n== the engine refuses to guess ==")
M = FPModule.cyclic(Z, [5])
evil = Tower.explicit([M, M, M], [identity_map(M), identity_map(M)])
res = lim_lim1(evil)
print("explicit tower without a periodicity tag:", res.lim.kind)

print("\n== pro-triviality and weak proregularity ==")
t = Tower.tor(FPObj(M), [Z.el(5)], 1)
v = is_pro_trivial(t, lag=3, stage_bound=6)
print(f"Tor_1 tower of Z/5: {v.status}, lag {v.lag}")
_, w = run({"ring": {"base": "Q", "vars": ["x", "y"]},
            "ideal": ["x + y", "x*y"]}, "proreg-check")
print(f"(x+y, xy) in Q[x,y]: {w['result']['status']}")
