"""
Polyhedral cones beyond the orthant
===================================

The classification machinery is not tied to probability vectors: any
pointed, full-dimensional cone described by generators works.  This
script builds a narrow cone in the plane, inspects its dual rays, and
classifies maps that preserve it.
"""

import numpy as np

from conemix import (
    Polyhedral,
    TensorCone,
    classify,
    from_matrix,
    is_positive,
    u_norm,
)

# The cone spanned by [1, 0] and [1, 1]: a 45-degree wedge.  Construction
# enumerates the dual cone's extreme rays exactly; an exact membership
# query afterwards is one integer product with those rays.
wedge = Polyhedral([[1, 0], [1, 1]])
print("wedge dual rays:", [list(map(int, y))
                           for y in wedge.exact_dual_generators()])
print("contains [2, 1]:", wedge.contains([2, 1]),
      " interior [1, 1]:", wedge.interior_contains([1, 1]))

# This matrix maps both generators strictly inside the wedge, so it is
# cone-positive, and its Perron pair is interior: primitive.
squeeze = from_matrix([[2, 1], [1, 1]], wedge)
print("squeeze positive:", is_positive(squeeze).value)
report = classify(squeeze)
print("squeeze verdicts:", report.verdicts())
print("  stationary direction:", np.round(report.stationary, 4))

# A 90-degree rotation tips the wedge out of itself.
rotation = from_matrix([[0, -1], [1, 0]], wedge)
print("rotation positive:", is_positive(rotation).value)

# The identity preserves the wedge but fixes every ray: not ergodic.
print("identity verdicts:", classify(from_matrix([[1, 0], [0, 1]],
                                                 wedge)).verdicts())

# Order-interval norms: on the orthant the u-norm is a weighted l1 norm;
# on a general polyhedral cone it is |<u, x>| when x or -x lies in the
# cone, and a small linear program computes it for any other vector.
u = wedge.default_unit()
print("unit element:", u)
for x in ([1.0, 0.0], [0.0, 1.0], [1.0, -1.0]):
    print(f"  |{x}|_u =", round(u_norm(x, u, wedge), 6))

# Tensor products of polyhedral cones are again polyhedral: the product
# cone of two wedges has the four pairwise generator products, and the
# interior of a product vector factors through the operands.
product = TensorCone(wedge, wedge)
inside = np.kron([3.0, 1.0], [3.0, 2.0])
edge = np.kron([1.0, 0.0], [3.0, 2.0])
print("product-vector interior:", product.interior_contains(inside),
      product.interior_contains(edge))
