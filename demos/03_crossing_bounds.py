"""From cumulated k-edge counts to crossing-number lower bounds.

The chain: if a drawing is seq-shellable for a face, its cumulated k-edge
counts meet the thresholds 3*C(k+3, 3) for every admissible k, and a
drawing meeting all thresholds has at least H(n) crossings, where H is the
conjectured crossing number of the complete graph. The cylindrical family
achieves H(n) exactly, so for these drawings the chain is tight.

Run:  python demos/03_crossing_bounds.py
"""

from shellcert import (
    cumulative_bound_check, cylindrical_drawing, decide_seq_shellable,
    harary_hill_bound, random_rectilinear,
)

print("the conjectured crossing number H(n) and the cylindrical family:")
print(f"  {'n':>3} {'H(n)':>6} {'crossings':>10}")
for n in range(5, 13):
    drawing = cylindrical_drawing(n)
    print(f"  {n:>3} {harary_hill_bound(n):>6} {drawing.crossing_count():>10}")

print("\nbound tables for an optimal drawing on 10 vertices:")
drawing = cylindrical_drawing(10)
k_top = drawing.n // 2 - 2
cert = decide_seq_shellable(drawing, k_top)
print(f"  seq-shellable at k = {k_top} for face {cert.face}")
rows = cumulative_bound_check(drawing, cert.face, k_top)
print(f"  {'k':>3} {'cumulated':>10} {'threshold':>10} {'holds':>6}")
for row in rows:
    print(f"  {row.k:>3} {row.cumulated:>10} {row.threshold:>10} {str(row.ok):>6}")
print(f"  crossings {drawing.crossing_count()} >= H(10) = {harary_hill_bound(10)}")

print("\nthe same chain on seeded random straight-line drawings of K_7:")
for seed in range(5):
    d = random_rectilinear(7, seed)
    c = decide_seq_shellable(d, 1)
    ok = all(r.ok for r in cumulative_bound_check(d, c.face, 1))
    print(f"  seed {seed}: crossings {d.crossing_count():>2}, "
          f"bounds hold: {ok}, cr >= H(7) = {harary_hill_bound(7)}: "
          f"{d.crossing_count() >= harary_hill_bound(7)}")
