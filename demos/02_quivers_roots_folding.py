# Valued quivers, folding, Cartan data and real-root sequences.
#
# Folding the A3 path along its end-swap gives the rank-2 valued quiver of
# type C2; the Kronecker quiver is affine with delta = (1,1) and its real
# roots come in the two classical ladders (n, n+1) and (n+1, n).

from hallbases.cartan import (
    Arrow,
    QuiverAutomorphism,
    ValuedQuiver,
    admissible_of,
    builtin_quiver,
    cartan_of,
    euler_form,
    fold,
    is_affine,
    min_delta,
    parse_quiver,
    reflect,
)

print("== folding A3 to C2 ==")
a3 = ValuedQuiver(("1", "2", "3"), {"1": 1, "2": 1, "3": 1},
                  (Arrow("a", "1", "2"), Arrow("b", "3", "2")))
swap = QuiverAutomorphism(a3, {"1": "3", "3": "1", "2": "2"}, {"a": "b", "b": "a"})
c2 = fold(a3, swap)
print("vertices:", c2.vertices, " d =", c2.d)
print("arrow valuation m =", c2.arrows[0].m)
print("Cartan matrix:", cartan_of(c2).C)

print()
print("== the Kronecker quiver is affine ==")
kron = builtin_quiver("kronecker")
datum = cartan_of(kron)
print("C =", datum.C)
print("affine:", is_affine(datum), " delta =", min_delta(datum))
print("<(1,0),(0,1)> =", euler_form(kron, (1, 0), (0, 1)))
print("s_2(e_1) =", reflect(datum, "2", (1, 0)))

print()
print("== real roots from the admissible sequence ==")
seq = admissible_of(kron)
print("base sink order:", seq.base_order)
for t in range(-3, 4):
    print("  beta_%2d = %s  (vertex %s)" % (t, seq.beta(t), seq.vertex(t)))

print()
print("== quivers from text ==")
g = parse_quiver("""
vertex A d=2
vertex B
arrow h A B m=2
""")
print("parsed:", g.key())
print("its Cartan matrix:", cartan_of(g).C)

print()
print("== finite type stops producing roots ==")
a2 = builtin_quiver("a2")
seq2 = admissible_of(a2)
t = 0
while True:
    try:
        b = seq2.beta(t)
    except ValueError:
        print("  beta_%d does not exist: the infinite word is not reduced there" % t)
        break
    print("  beta_%2d = %s" % (t, b))
    t -= 1
