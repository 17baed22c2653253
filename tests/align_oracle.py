"""The all-pairs greedy matcher that `kgunits.align` used before it matched
equal signatures by bucket and scored only pairs that share a key.

Kept as the oracle of the differential tests in `test_align.py`: it
scores every left × right pair, so it is obviously the greedy the
module docstring describes.
"""

from __future__ import annotations

from fractions import Fraction


def greedy_match(
    left: list[str], right: list[str], score
) -> list[tuple[str, str, Fraction]]:
    """Injective matching, best scores first, ties broken by identifier."""
    pairs = []
    for l in left:
        for r in right:
            s = score(l, r)
            if s > 0:
                pairs.append((s, l, r))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_l: set[str] = set()
    used_r: set[str] = set()
    out = []
    for s, l, r in pairs:
        if l in used_l or r in used_r:
            continue
        used_l.add(l)
        used_r.add(r)
        out.append((l, r, s))
    return out


def greedy_match_signatures(left, right, sig_l, sig_r, jaccard):
    """`greedy_match` with the call signature of `kgunits.align._greedy_match`."""
    return greedy_match(left, right, lambda l, r: jaccard(sig_l[l], sig_r[r]))
