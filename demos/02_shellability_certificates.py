"""Searching, verifying, and transforming shellability certificates.

A drawing is k-seq-shellable when some face admits a deletion sequence
a_0..a_k whose members stay incident to the face containing the reference
face, each owning a "simple sequence" of the right length. Bishellability
asks for two interleaved deletion sequences instead. Both notions come
with machine-checkable certificates: the decider's output can be verified
from scratch, shipped as JSON, and audited without re-running any search.

Run:  python demos/02_shellability_certificates.py
"""

from shellcert import (
    SeqShellCertificate, bishell_to_seq, certificate_to_document, convex_drawing,
    decide_bishellable, decide_seq_shellable, dumps_document, random_rectilinear,
    verify_bishell_certificate, verify_seq_certificate,
)

drawing = convex_drawing(10)
k = drawing.n // 2 - 2
print(f"searching a convex drawing on 10 vertices at k = {k} ...")

cert = decide_seq_shellable(drawing, k)
print(f"  seq-shellable:  face {cert.face}, vertices {cert.vertices}")
for i, seq in enumerate(cert.sequences):
    print(f"    simple sequence of a_{i} = {cert.vertices[i]}: {seq}")
print(f"  verifier says: {verify_seq_certificate(drawing, cert).ok}")

bcert = decide_bishellable(drawing, k)
print(f"  bishellable:    face {bcert.face}, a = {bcert.a_sequence}, "
      f"b = {bcert.b_sequence}")

# A bishellability witness is also a seq-shellability witness: keep the
# a-sequence and hand out prefixes of the b-sequence.
transformed = bishell_to_seq(bcert)
print(f"  transformed:    sequences {transformed.sequences}")
print(f"  transformed verifies: {verify_seq_certificate(drawing, transformed).ok}")

# Tampering is caught, with the violated condition named.
tampered = SeqShellCertificate(cert.face, cert.vertices,
                               ((cert.vertices[0],) + cert.sequences[0][1:],)
                               + cert.sequences[1:])
result = verify_seq_certificate(drawing, tampered)
print(f"\ntampered certificate verifies: {result.ok}")
for line in result.violations:
    print(f"  violation: {line}")

# Certificates serialize to small JSON documents.
print("\nserialized certificate:")
print(dumps_document(certificate_to_document(cert)), end="")

# Random straight-line drawings are shellable too; their certificates vary.
print("\ncertificates for a few seeded rectilinear drawings on 7 vertices:")
for seed in range(4):
    d = random_rectilinear(7, seed)
    c = decide_seq_shellable(d, 1)
    print(f"  seed {seed}: face {c.face}, vertices {c.vertices}, "
          f"sequences {c.sequences}")
