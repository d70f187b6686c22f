# The finite-field oracle: catalogs, Hall numbers, defects and tubes.
#
# Everything downstream is anchored in exhaustive counting over small
# fields.  Catalogs list one representative per isomorphism class, certify
# completeness with the exact mass formula sum |G|/|Aut| = |points|, and
# submodule scans produce every Hall number of a dimension slice at once.

from hallbases.cartan import builtin_quiver
from hallbases.modrep import (
    IsoClassCatalog,
    direct_sum,
    ext_dim,
    field,
    hall_number,
    hom_dim,
    simple_module,
)

kron = builtin_quiver("kronecker")
F2 = field(2)

print("== the Kronecker catalog at (1,1) over F_2 ==")
cat = IsoClassCatalog(kron, F2, [(2, 2)])
for c in cat.classes_of_dim((1, 1)):
    print("  class %d: indec=%s defect=%s |Aut|=%d" % (c.cid, c.indec, c.defect, c.aut))
print("that is S1+S2 plus |P^1(F_2)| = 3 homogeneous regulars")
print("mass formula checked on %d dimension vectors" % len(cat.mass_checked))

print()
print("== Hall numbers ==")
s1 = simple_module(kron, F2, "1")
s2 = simple_module(kron, F2, "2")
both = direct_sum(s1, s2)
print("g^{S1+S2}_{S1,S2} =", hall_number(both, s1, s2))
print("g^{S1+S2}_{S2,S1} =", hall_number(both, s2, s1))
print("ext(S1, S2) =", ext_dim(s1, s2), " (two arrows)")
print("hom(S1, S1) =", hom_dim(s1, s1))

print()
print("== counting lines in a plane: g = q + 1 over every field ==")
a1 = builtin_quiver("a1")
for q in (2, 3, 4, 5):
    F = field(2, 2) if q == 4 else field(q)
    s = simple_module(a1, F, "1")
    print("  q = %d: g^{S+S}_{S,S} = %d" % (q, hall_number(direct_sum(s, s), s, s)))

print()
print("== tubes of the affine quivers ==")
print("Kronecker over F_3: tube ranks", [t["rank"] for t in
      IsoClassCatalog(kron, field(3), [(1, 1)]).tube_structure()])
a2t = builtin_quiver("a2tilde")
cat3 = IsoClassCatalog(a2t, F2, [(1, 1, 1)])
tubes = cat3.tube_structure()
for t in tubes:
    dims = [cat3.classes[c].dims for c in t["simples"]]
    print("A2-tilde tube of rank %d with regular simples %s" % (t["rank"], dims))

print()
print("== synthesized catalogs reach dimensions brute force cannot ==")
big = IsoClassCatalog(kron, F2, [(4, 5)])
ind = [c for c in big.classes_of_dim((4, 5)) if c.indec]
print("classes at (4,5): %d, indecomposables: %d (the preprojective P_4)"
      % (len(big.classes_of_dim((4, 5))), len(ind)))
