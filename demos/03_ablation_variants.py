"""How the ablation switches change the co-occurrence weights.

Builds the accumulator under all four variants on the same two-user log and
prints the weight each variant assigns to the same item pairs: the full
variant weights by recency of the interval, no_I counts occurrences, no_IN
only records presence, and no_INT additionally keeps pairs beyond the time
threshold.
"""

import numpy as np

from gimirec.global_context import AblationVariant, extract_hop_pairs
from gimirec.ingest import Sequences

DAY = 86400

# user 0 buys (1, 2) twice in quick succession and (1, 3) across a long gap;
# user 1 buys (1, 3) ten days apart (flat columns, 4 then 2 interactions)
sequences = Sequences(
    items=[1, 2, 1, 2, 1, 3],
    timestamps=np.array([0, 1, 10, 30, 0, 10]) * DAY + 1,
    lengths=[4, 2],
)

pairs = [(1, 2), (2, 1), (1, 3)]
header = f"{'variant':<8}" + "".join(f"  q{p}" for p in pairs)
print(header)
for variant in AblationVariant:
    acc = extract_hop_pairs(sequences, variant, a=0.65, b=0.35, l_time=7.0)
    rows, cols, values = acc.hops[1]
    hop1 = {(r, c): q for r, c, q in zip(rows.tolist(), cols.tolist(), values)}
    row = f"{variant.value:<8}"
    for p in pairs:
        row += f"  {hop1.get(p, 0.0):7.3f}"
    print(row)

print("""
reading the table:
  (1,2): two occurrences, dt = 1 and 20 days.  full weights the close pair
         near 1.0 and drops the 20-day pair (over the 7-day threshold);
         no_INT keeps it.
  (2,1): one 9-day occurrence: filtered by the threshold except for no_INT.
  (1,3): one 10-day occurrence: same story.
""")
