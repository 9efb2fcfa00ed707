"""Exact arithmetic in the supported rings, normal forms, Groebner bases.

Run with:  python demos/01_rings_and_groebner.py
"""

from lodua import groebner_basis, make_ring, smith_normal_form
from lodua.linalg import mat_mul

print("== canonical forms ==")
Q = make_ring({"base": "Q", "vars": ["x", "y"], "quotient": ["x^2 - y"]})
print(f"in Q[x,y]/(x^2 - y):  x^3  ->  {Q.el('x^3')}")

Z5 = make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 3}})
print(f"in Z_5 at precision 3:  126  ->  {Z5.el('126')}")

Zloc = make_ring({"base": "Z", "invert": "5"})
e = Zloc.el(10, dexp=1)
print(f"in 5^-1 Z:  10/5  ->  {e}   (denominators are powers of 5)")

print("\n== a reduced Groebner basis, lex x > y ==")
R = make_ring({"base": "Q", "vars": ["x", "y"]})
Rlex = make_ring({"base": "Q", "vars": ["x", "y"]})
basis = groebner_basis(R, ["x^2 - y", "y^2 - x"], order="lex")
for b in basis:
    print("  ", b.render())
print("(the classic elimination: x = y^2, then y^4 = y)")

print("\n== Smith normal form over Z ==")
Z = make_ring({"base": "Z"})
A = [[Z.el(2), Z.el(4)], [Z.el(6), Z.el(8)]]
U, D, V, Uinv, Vinv = smith_normal_form(Z, A)
print("  D =", [[str(x) for x in row] for row in D])
UAV = mat_mul(Z, mat_mul(Z, U, A), V)
assert all(UAV[i][j] == D[i][j] for i in range(2) for j in range(2))
print("  U*A*V = D verified; U, V carry exact inverses")
