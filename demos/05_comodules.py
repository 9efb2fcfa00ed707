"""Comodules over a group-like Hopf algebroid: the C_2-swap instance on
k[x, y] with the invariant ideal (x + y, xy), and the theorem verifiers.

Run with:  python demos/05_comodules.py
"""

from lodua import (Comodule, FPModule, GroupLikeHopfAlgebroid, IdealData,
                   comodule_completion, extended_comodule, make_ring,
                   settings, verify_theorems)

kxy = make_ring({"base": "Q", "vars": ["x", "y"]})
table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
swap = GroupLikeHopfAlgebroid(kxy, ["e", "s"], table,
                              {"s": {"x": "y", "y": "x"}})
print("Hopf algebroid:", swap.describe())

A = Comodule(swap, FPModule.free(kxy, 1), {"s": [[kxy.el(1)]]})
print("\nthe unit comodule validates: semilinearity, group law, counit,")
print("coassociativity are all materialized and checked")

E = extended_comodule(swap, A.module)
print("extended comodule Psi (x) A has rank", E.module.ngens)

d = IdealData(kxy, ["x + y", "x*y"])     # G-fixed generators
# completions at precision 5, towers probed to 5 stages and lag 3
with settings(precision=5, K=5, lag=3):
    lim, cert = comodule_completion(A, d, method="kernel")
    print("\ncomodule completion at (x+y, xy):", lim.module)
    print("  kernel-method certificate:", cert["kernel"][:60] + "...")
    lim2, cert2 = comodule_completion(A, d, method="pullback")
    print("  pullback method agrees:", lim.module.ngens == lim2.module.ngens)

    print("\n== theorem verifiers ==")
    for which in ("true-level", "completion-formula", "fg-vanishing",
                  "injective-vanishing", "comodule-gm"):
        out = verify_theorems(swap, d, A, which)
        print(f"  {which:20s} {out.get('verdict')}")
