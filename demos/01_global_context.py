"""Walk through global-context extraction on a tiny hand-made log.

Shows the k-hop pair accumulation, the interval weighting, the symmetrized
weighted adjacency with unit diagonal, the symmetric normalization, and the
one-hop graph convolution that produces global item embeddings.
"""

import numpy as np

from gimirec.global_context import (AblationVariant, build_weighted_adjacency,
                                    extract_hop_pairs, global_embeddings,
                                    occurrence_weight)
from gimirec.ingest import Sequences

DAY = 86400

# three users, five items, as flat columns: user A interacts with
# [1, 2, 3, 2, 5], user B with [2, 5, 1, 4] and user C with [3, 4, 5]
sequences = Sequences(
    items=[1, 2, 3, 2, 5, 2, 5, 1, 4, 3, 4, 5],
    timestamps=np.array([0, 1, 2, 40, 41, 10, 11, 12, 13, 20, 20, 90]) * DAY + 1,
    lengths=[5, 4, 3],
)

print("interval weight at dt=0 days:", occurrence_weight(0.0, 0.65, 0.35, 64))
print("interval weight at dt=64 days:", occurrence_weight(64.0, 0.65, 0.35, 64))

acc = extract_hop_pairs(sequences, AblationVariant.FULL, a=0.65, b=0.35,
                        l_time=64.0)
print("\nqualifying pair occurrences:", acc.occurrences,
      "(cap: 3x interactions =", 3 * acc.total_interactions, ")")
for k in (1, 2, 3):
    print(f"{k}-hop accumulated weights:")
    for mu, nu, q in zip(*acc.hops[k]):
        print(f"  ({mu} -> {nu}): {q:.4f}")

adj = build_weighted_adjacency(acc, alpha=4.5, beta=2.0, gamma=1.0,
                               num_items=5)
print("\nweighted adjacency A' (row 0 is the padding slot):")
print(np.round(adj.a_prime.toarray(), 3))
print("row sums (degree):", np.round(adj.degree, 3))
print("\nnormalized adjacency:")
print(np.round(adj.a_norm.toarray(), 3))

rng = np.random.default_rng(0)
item_table = rng.normal(size=(6, 4))
item_table[0] = 0.0
emb = global_embeddings(adj.a_norm, item_table)
print("\nglobal embeddings = normalized adjacency @ item table")
print("item 2 before:", np.round(item_table[2], 3))
print("item 2 after: ", np.round(emb[2], 3),
      "(now a mix of its co-occurrence neighborhood)")
