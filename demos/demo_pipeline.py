#!/usr/bin/env python3
"""Walk the full pipeline on the algebra s1.

Structure constants -> derivations -> lifted vector fields -> symbolic
[r, r] -> mCYBE system -> bricks -> one verified stratum -> orbit dimension.
Run with:  python demos/demo_pipeline.py
"""

from darbouxlie import (AlgebraContext, MultiVector, catalog,
                        derivation_basis, fundamental_fields, generic_rr,
                        orbit_dim, yb_system)
from darbouxlie.darboux import TreeBranch, branch_samples, find_bricks, \
    verify_branch
from darbouxlie.exactmath import Poly
from darbouxlie.grassmann import blade_name, blades

x = Poly.var


def field_text(X) -> str:
    """The lifted field X(p) = A p as sum_a (A x)_a * d/dx_a."""
    bits = [f"({Poly({((b, 1),): c for b, c in enumerate(row)}).text()})"
            f"*d/dx{a}" for a, row in enumerate(X.entries, 1) if any(row)]
    return " + ".join(bits) or "0"

g = catalog("s1")
print(f"== {g.name}: nonzero brackets [e2,e4] = -e1, [e3,e4] = -e3")

ders = derivation_basis(g)
print(f"\nder(g) has dimension {len(ders)}; the first basis derivation:")
for row in ders[0].entries:
    print("   ", " ".join(str(e) for e in row))

fields = fundamental_fields(g, 2)
print("\nlifted vector fields on the bivector coordinates x1..x6:")
for i, X in enumerate(fields, 1):
    print(f"  X{i} = {field_text(X)}")

rr = " + ".join(f"({p.text()})*{blade_name(b)}"
               for b, p in zip(blades(g.dim, 3), generic_rr(g))
               if not p.is_zero())
print(f"\n[r, r] = {rr or 0}")

ybs = yb_system(g)
print("mCYBE system (reduced):",
      "{" + ", ".join(p.text() for p in ybs.reduced) + "}")

bricks = find_bricks(fields)
print("bricks:", ", ".join(b.poly.text() for b in bricks))

branch = TreeBranch("VIII", [x(4), x(2)], [(x(5), "!="), (x(0), "!=")],
                    expected_dim=4)
rep = verify_branch(AlgebraContext(g), fields, branch,
                    branch_samples(branch, 6))
print(f"\nstratum {branch.label}: x5 = x3 = 0, x6 != 0, x1 != 0")
print(f"  Darboux family verified (constant cofactors: {rep.linear}),"
      f" rank {rep.ranks[0]} at {rep.samples_checked} sample points,"
      f" all mCYBE solutions: {rep.mcybe_ok}")

w = MultiVector.blade(4, [0, 1]) + MultiVector.blade(4, [2, 3])
print(f"\norbit dimension of e12 + e34: {orbit_dim(g, w)}")
