"""Membership certificates: the telescope Ext grid deciding completeness,
and the homology-level torsion/complete tests.

Run with:  python demos/04_completeness_criteria.py
"""

from lodua import (ChainComplex, ChainMap, FPModule, FPObj, GradedObject,
                   IdealData, ModuleMap, Rational, Telescope,
                   TelescopeQuotient, cone, homology_membership, is_L_complete,
                   is_lambda_local, make_ring)

Z = make_ring({"base": "Z"})
d = IdealData(Z, [5])
Zp_ring = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}})
free = FPModule.free(Z, 1)

cases = {
    "Z_5 (the completion)": FPObj(FPModule.free(Zp_ring, 1)),
    "Z/125": FPObj(FPModule.cyclic(Z, [125])),
    "Z": FPObj(free),
    "Q": Rational(Z, 1),
    "Z/5^infty": TelescopeQuotient(free, Z.el(5)),
    "Z[1/5]": Telescope(free, Z.el(5)),
}
print("== the Ext grid: complete iff every cell vanishes ==")
for name, desc in cases.items():
    cert = is_L_complete(desc, d)
    line = f"{name:22s} {cert.verdict}"
    if cert.witness:
        line += f"   witness cell i={cert.witness['i']}, q={cert.witness['q']}"
    print(line)

print("\n== homology-level membership for complexes ==")
X = ChainComplex.single(free, 0)
cn = cone(ChainMap(X, X, {0: ModuleMap(free, free, [[Z.el(5)]])}))
r = homology_membership(cn, d)
print("cone(5) is I-power torsion:", r["verdict"], "--", r["gamma_fixed_point"])

Zp = FPModule.free(Zp_ring, 1)
r = is_lambda_local(ChainComplex.single(Zp, 0), d)
print("Z_5 in degree 0 is completion-local:", r["verdict"])
