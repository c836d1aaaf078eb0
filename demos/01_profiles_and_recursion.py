"""k-edge profiles and the deletion recursion, step by step.

Every edge of a drawing of the complete graph gets a k-value relative to a
chosen reference face: among the n-2 triangles through the edge, count how
many have the face on their left, and take the minimum of that count and
its complement. This script computes the profile of a small optimal
drawing, deletes a vertex, and shows how the cumulated counts of parent
and child balance exactly through the edges at the deleted vertex and the
invariant edges.

Run:  python demos/01_profiles_and_recursion.py
"""

from shellcert import (
    cylindrical_drawing, invariant_edges, k_edge_profile, recursion_check,
    trace_faces, vertex_k_profile, vertices_on_face,
)
from shellcert.planarize import outer_face

n = 6
drawing = cylindrical_drawing(n)
faces = trace_faces(drawing)
face = outer_face(drawing)

print(f"an optimal drawing of the complete graph on {n} vertices")
print(f"  crossings: {drawing.crossing_count()}")
print(f"  faces:     {faces.face_count()}")
print(f"  reference face {face} touches vertices "
      f"{sorted(vertices_on_face(drawing, face))}")

profile = k_edge_profile(drawing, face)
print("\nper-edge k-values with respect to that face:")
for edge, k in sorted(profile.k_values.items()):
    print(f"  edge {edge}: {k}")
print(f"counts per level: {profile.counts}")
print(f"cumulated counts: {profile.cumulated}")

# Delete a vertex sitting on the reference face and compare. The k-values
# of the child drawing, for its face containing the reference face, are
# read off the parent: the deleted vertex stops being a witness.
v = min(vertices_on_face(drawing, face))
report = invariant_edges(drawing, face, v)

print(f"\ndeleting vertex {v}: {len(report.child_k)} edges survive, "
      f"with k-values in the child drawing:")
for edge, k in sorted(report.child_k.items()):
    print(f"  edge {edge}: {k}")
print(f"invariant edges (same k-value before and after): "
      f"{sorted(report.invariant_edges)}")

print("\nthe recursion that ties the two profiles together, per level k:")
print("  cumulated(parent) = cumulated(child, k-1) + at-deleted-vertex + invariant")
for k in range(n // 2 - 1):
    # cumulated(child, k-1): level i <= k-1 contributes k - i per edge
    child_term = sum(k - c for c in report.child_k.values() if c < k)
    at_v = vertex_k_profile(drawing, face, v)[k]
    inv = report.cumulated[k]
    print(f"  k={k}: {profile.cumulated[k]:3d} = {child_term:3d} + {at_v:3d} + {inv:3d}"
          f"   (residual {recursion_check(drawing, face, v, k)})")
