"""PrefixSpan (Pei et al., 2001) with occurrence tracking.

Mines frequent subsequences of item sequences by prefix-projected
database growth.  Beyond supports, the miner records for every frequent
sequence its *leftmost occurrence* in each supporting input sequence —
Algorithm 4 needs the matched stay-point positions of every supporting
trajectory, not just a count.

Items are arbitrary hashables (category tag strings in this project).
Only single-item elements are supported: a stay point carries exactly
one dominant tag, so itemset elements never occur in this pipeline.

:class:`WindowedPrefixSpan` maintains the same frequent set over a
*sliding* corpus: sequences are added and retired by stable id, and the
pattern set is updated exactly — retirement decrements per-pattern
supporter maps (supporters are per-sequence facts, so a pure decrement
is exact), and addition grows the prefix tree over *only the new
batch* and merges its supporters in, so update cost scales with the
batch, not the window.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.obs import get_registry

Item = Hashable


@dataclass(frozen=True)
class FrequentSequence:
    """One frequent sequential pattern.

    ``occurrences`` maps each supporting sequence's index to the item
    positions of the leftmost match, e.g. pattern ``(a, b)`` matched in
    sequence 3 at positions ``(0, 4)`` appears as ``(3, (0, 4))``.
    """

    items: Tuple[Item, ...]
    support: int
    occurrences: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.items)


def prefixspan(
    sequences: Sequence[Sequence[Item]],
    min_support: int,
    min_length: int = 1,
    max_length: int = 8,
) -> List[FrequentSequence]:
    """Mine frequent subsequences with support >= ``min_support``.

    Parameters
    ----------
    sequences:
        Input sequences of hashable items; ``None`` items are treated as
        wildcards that match nothing (unrecognised stay points).
    min_support:
        Minimum number of distinct supporting sequences.
    min_length, max_length:
        Emitted pattern length bounds (``max_length`` also prunes the
        recursion, keeping the search polynomial on dense data).
    """
    if min_support < 1:
        raise ValueError("min_support must be at least 1")
    if min_length < 1 or max_length < min_length:
        raise ValueError("need 1 <= min_length <= max_length")

    # Projected database: (sequence index, positions matched so far,
    # start offset for the next extension).
    projections: List[Tuple[int, Tuple[int, ...], int]] = [
        (i, (), 0) for i in range(len(sequences))
    ]
    out: List[FrequentSequence] = []
    stats = {"pruned": 0, "nodes": 0}
    _grow((), projections, sequences, min_support, min_length, max_length,
          out, stats)
    out.sort(key=lambda fs: (-fs.support, len(fs.items), str(fs.items)))
    reg = get_registry()
    if reg.enabled:
        reg.counter("prefixspan.sequences.mined").inc(len(sequences))
        reg.counter("prefixspan.patterns.emitted").inc(len(out))
        reg.counter("prefixspan.candidates.pruned").inc(stats["pruned"])
        reg.counter("prefixspan.nodes.expanded").inc(stats["nodes"])
    return out


def _grow(
    prefix: Tuple[Item, ...],
    projections: List[Tuple[int, Tuple[int, ...], int]],
    sequences: Sequence[Sequence[Item]],
    min_support: int,
    min_length: int,
    max_length: int,
    out: List[FrequentSequence],
    stats: Dict[str, int],
) -> None:
    if len(prefix) >= max_length:
        return
    stats["nodes"] += 1
    # Local frequent items: first (leftmost) occurrence per sequence.
    first_hit: Dict[Item, List[Tuple[int, Tuple[int, ...], int]]] = defaultdict(list)
    for seq_idx, positions, start in projections:
        seq = sequences[seq_idx]
        seen: set = set()
        for pos in range(start, len(seq)):
            item = seq[pos]
            if item is None or item in seen:
                continue
            seen.add(item)
            first_hit[item].append((seq_idx, positions + (pos,), pos + 1))

    for item, extended in sorted(first_hit.items(), key=lambda kv: str(kv[0])):
        if len(extended) < min_support:
            stats["pruned"] += 1
            continue
        new_prefix = prefix + (item,)
        if len(new_prefix) >= min_length:
            out.append(
                FrequentSequence(
                    items=new_prefix,
                    support=len(extended),
                    occurrences=tuple(
                        (seq_idx, positions) for seq_idx, positions, _s in extended
                    ),
                )
            )
        _grow(new_prefix, extended, sequences, min_support, min_length,
              max_length, out, stats)


class WindowedPrefixSpan:
    """Exact frequent-sequence maintenance over a sliding corpus.

    Sequences carry a caller-chosen stable integer id; the window is
    whatever set of ids is currently live.  The maintained pattern
    state is *always* identical to what :func:`prefixspan` would mine
    from scratch over the live window (with occurrences keyed by
    sequence id instead of positional index) — the decrement-
    correctness test pins this invariant.

    The state is a map from every pattern with *at least one* live
    supporter (length 1..``max_length``) to its supporter map
    ``{seq_id: leftmost-match positions}``.  Whether sequence ``s``
    supports pattern ``p`` — and at which positions the leftmost match
    lands — is a fact about ``(p, s)`` alone, independent of the rest
    of the corpus.  A window's supporter map is therefore the disjoint
    union of per-sequence contributions, which makes both updates
    exact:

    - **Addition** grows the prefix-projected tree over *only* the new
      batch (local support 1) and merges each visited node's
      supporters into the state (``prefixspan.patterns.merged``).
      Update cost scales with the batch content, never the window.
    - **Retirement** pops the retired ids out of every supporter map
      and deletes patterns left with no supporters.  Patterns whose
      support crosses below ``min_support`` leave the frequent set
      (``prefixspan.patterns.aged_out``) but stay in the state while
      any supporter lives — a later batch may lift them back over the
      threshold, and their below-threshold supporters must not be
      forgotten.

    Keeping sub-threshold patterns is what the batch-local growth
    buys its exactness with: state size is bounded by the number of
    distinct subsequences (length <= ``max_length``) present in the
    live window, which the short tag alphabet keeps small.
    :meth:`frequent` filters to ``support >= min_support`` on read, so
    the visible pattern set always equals a from-scratch
    :func:`prefixspan` of the live window — the decrement-correctness
    test pins this invariant.
    """

    def __init__(
        self,
        min_support: int,
        min_length: int = 1,
        max_length: int = 8,
    ) -> None:
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        if min_length < 1 or max_length < min_length:
            raise ValueError("need 1 <= min_length <= max_length")
        self.min_support = min_support
        self.min_length = min_length
        self.max_length = max_length
        self._sequences: Dict[int, Tuple[Item, ...]] = {}
        # Every pattern of length 1..max_length with >= 1 live
        # supporter (sub-threshold ones included — see class
        # docstring) -> {seq_id: leftmost-match positions}.
        self._patterns: Dict[Tuple[Item, ...], Dict[int, Tuple[int, ...]]] = {}
        # Inverted index: seq_id -> the patterns it supports, so
        # retirement touches only the retired sequences' own entries
        # instead of scanning every pattern in the window.
        self._supported_by: Dict[int, List[Tuple[Item, ...]]] = {}

    # -- window membership -----------------------------------------------

    def __len__(self) -> int:
        return len(self._sequences)

    # -- updates ---------------------------------------------------------

    def add_many(self, new: Mapping[int, Sequence[Item]]) -> None:
        """Add a batch of sequences (id -> items) to the window.

        Ids must be fresh; re-adding a live id raises ``ValueError``.
        """
        for seq_id in new:
            if seq_id in self._sequences:
                raise ValueError(f"sequence id {seq_id} is already live")
        if not new:
            return
        for seq_id, seq in new.items():
            self._sequences[seq_id] = tuple(seq)
            self._supported_by[seq_id] = []
        projections: List[Tuple[int, Tuple[int, ...], int]] = [
            (seq_id, (), 0) for seq_id in sorted(new)
        ]
        merged = self._absorb((), projections)
        reg = get_registry()
        if reg.enabled:
            reg.counter("prefixspan.patterns.merged").inc(merged)

    def retire_many(self, seq_ids: Iterable[int]) -> None:
        """Drop sequences from the window; their support decrements
        propagate to every pattern (exact — see class docstring)."""
        # Group the retirements per pattern (a pattern may lose several
        # supporters in one batch), then apply each group once.
        hits: Dict[Tuple[Item, ...], List[int]] = defaultdict(list)
        for seq_id in list(seq_ids):
            del self._sequences[seq_id]
            for pattern in self._supported_by.pop(seq_id):
                hits[pattern].append(seq_id)
        aged_out = 0
        for pattern, dead_ids in hits.items():
            supporters = self._patterns[pattern]
            before = len(supporters)
            for seq_id in dead_ids:
                del supporters[seq_id]
            after = len(supporters)
            if before >= self.min_support > after:
                aged_out += 1
            if not after:
                del self._patterns[pattern]
        reg = get_registry()
        if reg.enabled and aged_out:
            reg.counter("prefixspan.patterns.aged_out").inc(aged_out)

    def _absorb(
        self,
        prefix: Tuple[Item, ...],
        projections: List[Tuple[int, Tuple[int, ...], int]],
    ) -> int:
        """Grow the prefix tree over a batch (local support 1) and
        merge every visited node's supporters into the window state.
        Returns the number of nodes merged."""
        if len(prefix) >= self.max_length:
            return 0
        first_hit: Dict[Item, List[Tuple[int, Tuple[int, ...], int]]] = (
            defaultdict(list)
        )
        for seq_id, positions, start in projections:
            seq = self._sequences[seq_id]
            seen: Set[Item] = set()
            for pos in range(start, len(seq)):
                item = seq[pos]
                if item is None or item in seen:
                    continue
                seen.add(item)
                first_hit[item].append((seq_id, positions + (pos,), pos + 1))

        merged = 0
        for item, extended in first_hit.items():
            new_prefix = prefix + (item,)
            supporters = self._patterns.setdefault(new_prefix, {})
            for seq_id, positions, _start in extended:
                supporters[seq_id] = positions
                self._supported_by[seq_id].append(new_prefix)
            merged += 1 + self._absorb(new_prefix, extended)
        return merged

    # -- views -----------------------------------------------------------

    def frequent(self) -> List[FrequentSequence]:
        """The frequent set of the current window, sorted exactly like
        :func:`prefixspan`; occurrences are keyed by sequence id."""
        out: List[FrequentSequence] = []
        for pattern, supporters in self._patterns.items():
            if len(pattern) < self.min_length:
                continue
            if len(supporters) < self.min_support:
                continue
            out.append(
                FrequentSequence(
                    items=pattern,
                    support=len(supporters),
                    occurrences=tuple(sorted(supporters.items())),
                )
            )
        out.sort(key=lambda fs: (-fs.support, len(fs.items), str(fs.items)))
        return out
