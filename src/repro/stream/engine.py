"""The online mining engine: one epoch at a time, window always exact.

:class:`StreamEngine` turns the batch pipeline into a sustained
process.  Each call to :meth:`process_epoch` feeds one batch of raw
trips (and optionally newly discovered POIs) through three incremental
stages:

1. **Diagram maintenance** — new POIs are absorbed by
   :class:`~repro.core.incremental.IncrementalCSD`; when the staleness
   gauge crosses the configured threshold, the dirty units (and only
   those) are re-purified and re-merged in place via
   :meth:`~repro.core.incremental.IncrementalCSD.repair`.
2. **Recognition of only-new records** — the epoch's trips become
   trajectories with stream-wide unique sequence ids and flow through
   the batched ``recognize_points`` voting kernel.  Previously
   recognised epochs are never re-voted; when the diagram changed this
   epoch, the recognizer is rebuilt first so new records see the
   freshest semantics.
3. **Windowed pattern maintenance** — recognised sequences enter a
   sliding window of the last ``window_epochs`` epochs, maintained by
   :class:`~repro.mining.prefixspan.WindowedPrefixSpan`: retiring
   epochs decrement per-pattern supporter maps exactly, and addition
   grows the prefix tree over only the new batch and merges its
   supporters in — update cost scales with the batch, not the window.

The invariant throughout: after every epoch, :meth:`patterns` equals a
from-scratch PrefixSpan mine of the live window, and the diagram equals
the offline constructor's output restricted to the same unit
memberships.  ``docs/STREAMING.md`` walks through both arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CSDConfig, MiningConfig
from repro.core.csd import CitySemanticDiagram
from repro.core.extraction import FineGrainedPattern, refine_patterns
from repro.core.incremental import IncrementalCSD, RepairReport
from repro.core.recognition import CSDRecognizer
from repro.data.poi import POI
from repro.data.taxi import TaxiTrip, trips_to_mining_trajectories
from repro.data.trajectory import SemanticTrajectory, as_tag_sequence
from repro.mining.prefixspan import FrequentSequence, WindowedPrefixSpan
from repro.obs import get_registry


@dataclass(frozen=True)
class EpochResult:
    """What one :meth:`StreamEngine.process_epoch` call produced.

    ``recognized`` holds the epoch's own sequences (recognised under
    the diagram state *of this epoch*); ``patterns`` is the coarse
    frequent set of the whole live window after the slide.
    ``diagram_changed`` is true when the epoch added POIs or a repair
    changed units — exactly when the diagram must be committed again.
    """

    epoch_index: int
    n_trips: int
    n_new_pois: int
    diagram_changed: bool
    sequence_ids: Tuple[int, ...]
    retired_ids: Tuple[int, ...]
    recognized: List[SemanticTrajectory] = field(repr=False)
    patterns: List[FrequentSequence] = field(repr=False)
    repair: Optional[RepairReport] = None


class StreamEngine:
    """Online ingest -> incremental recognition -> windowed patterns.

    Parameters
    ----------
    base_csd:
        The offline-built diagram to stream on top of.
    csd_config, mining_config:
        Same parameter dataclasses as the batch miner; the engine uses
        the merge/purify thresholds for diagram maintenance and the
        support/length bounds for the windowed miner.
    window_epochs:
        Number of epochs the pattern window spans; the oldest epoch
        retires when an epoch beyond the window arrives.
    staleness_threshold:
        Pending-POI fraction above which an epoch triggers a partial
        repair of the dirty units.
    """

    def __init__(
        self,
        base_csd: CitySemanticDiagram,
        csd_config: Optional[CSDConfig] = None,
        mining_config: Optional[MiningConfig] = None,
        *,
        window_epochs: int = 4,
        staleness_threshold: float = 0.05,
    ) -> None:
        if window_epochs < 1:
            raise ValueError("window_epochs must be at least 1")
        if not staleness_threshold >= 0:  # also rejects NaN
            raise ValueError("staleness_threshold must be non-negative")
        self.csd_config = csd_config or CSDConfig()
        self.mining_config = mining_config or MiningConfig()
        self.window_epochs = int(window_epochs)
        self.staleness_threshold = float(staleness_threshold)
        self.updater = IncrementalCSD(
            base_csd,
            merge_radius_m=self.csd_config.merge_radius_m,
            merge_cos=self.csd_config.merge_cos,
        )
        self._csd = base_csd
        self._recognizer = self._build_recognizer()
        self.miner = WindowedPrefixSpan(
            min_support=self.mining_config.support,
            min_length=self.mining_config.min_length,
            max_length=self.mining_config.max_length,
        )
        #: Live window: epoch index -> sequence ids, in arrival order.
        self._window: Dict[int, Tuple[int, ...]] = {}
        #: Live recognised sequences by id (Algorithm 4 refinement and
        #: persistence both need the stay points, not just the tags).
        self._recognized: Dict[int, SemanticTrajectory] = {}
        self.next_seq_id = 0
        self.next_epoch_index = 0

    # -- state views -----------------------------------------------------

    @property
    def csd(self) -> CitySemanticDiagram:
        """The diagram new records are currently recognised against."""
        return self._csd

    def window_epoch_ids(self) -> Dict[int, Tuple[int, ...]]:
        """Live epoch index -> sequence ids (insertion-ordered copy)."""
        return dict(self._window)

    def recognized_sequence(self, seq_id: int) -> SemanticTrajectory:
        return self._recognized[seq_id]

    def patterns(self) -> List[FrequentSequence]:
        """Coarse frequent patterns of the live window (occurrences
        keyed by stream sequence id)."""
        return self.miner.frequent()

    def _build_recognizer(self) -> CSDRecognizer:
        return CSDRecognizer(self._csd, self.csd_config.r3sigma_m)

    # -- epoch processing ------------------------------------------------

    def process_epoch(
        self,
        trips: Sequence[TaxiTrip],
        new_pois: Sequence[POI] = (),
    ) -> EpochResult:
        """Ingest one epoch; returns the post-slide window state."""
        reg = get_registry()
        with reg.timer("stream.epoch"):
            epoch_index = self.next_epoch_index
            self.next_epoch_index += 1

            # 1. Diagram maintenance.
            repair: Optional[RepairReport] = None
            diagram_changed = False
            if new_pois:
                self.updater.add_pois(new_pois)
                diagram_changed = True
                reg.counter("stream.pois.ingested").inc(len(new_pois))
            if (
                self.updater.staleness() > self.staleness_threshold
                and self.updater.dirty_units()
            ):
                report = self.updater.repair(
                    self.csd_config.v_min_m2, self.csd_config.r3sigma_m
                )
                if report.repaired:
                    repair = report
                    diagram_changed = True
                    reg.counter("stream.repairs").inc(1)
            if diagram_changed:
                self._csd = self.updater.diagram()
                self._recognizer = self._build_recognizer()

            # 2. Recognise only the new records.
            trajectories = self._epoch_trajectories(trips)
            with reg.timer("stream.recognize"):
                recognized = self._recognizer.recognize(trajectories)
            seq_ids = tuple(st.traj_id for st in recognized)

            # 3. Slide the window, then add the new sequences.
            with reg.timer("stream.maintain"):
                retired = self._retire_before(
                    epoch_index - self.window_epochs + 1
                )
                self._window[epoch_index] = seq_ids
                self.miner.add_many(
                    {st.traj_id: as_tag_sequence(st) for st in recognized}
                )
                for st in recognized:
                    self._recognized[st.traj_id] = st
            patterns = self.miner.frequent()

            reg.counter("stream.epochs").inc(1)
            reg.counter("stream.trips.ingested").inc(len(trips))
            reg.counter("stream.sequences.added").inc(len(seq_ids))
            if reg.enabled:
                reg.gauge("stream.window.epochs").set(float(len(self._window)))
                reg.gauge("stream.window.sequences").set(
                    float(len(self.miner))
                )
                reg.gauge("stream.patterns.live").set(float(len(patterns)))
        return EpochResult(
            epoch_index=epoch_index,
            n_trips=len(trips),
            n_new_pois=len(new_pois),
            diagram_changed=diagram_changed,
            sequence_ids=seq_ids,
            retired_ids=retired,
            recognized=recognized,
            patterns=patterns,
            repair=repair,
        )

    def _epoch_trajectories(
        self, trips: Sequence[TaxiTrip]
    ) -> List[SemanticTrajectory]:
        """The epoch's mining trajectories with stream-wide unique ids.

        Card-linked day chaining happens *within* the epoch (the epoch
        is the streaming unit of arrival; a passenger whose day spans
        two epochs yields two shorter chains — documented in
        ``docs/STREAMING.md``).
        """
        out: List[SemanticTrajectory] = []
        for st in trips_to_mining_trajectories(trips):
            out.append(SemanticTrajectory(self.next_seq_id, st.stay_points))
            self.next_seq_id += 1
        return out

    def _retire_before(self, first_live_epoch: int) -> Tuple[int, ...]:
        """Drop epochs older than ``first_live_epoch`` from the window."""
        reg = get_registry()
        retired: List[int] = []
        for epoch in [e for e in self._window if e < first_live_epoch]:
            ids = self._window.pop(epoch)
            self.miner.retire_many(ids)
            for seq_id in ids:
                del self._recognized[seq_id]
            retired.extend(ids)
        if retired:
            reg.counter("stream.sequences.retired").inc(len(retired))
        return tuple(retired)

    # -- resume support --------------------------------------------------

    def restore_epoch(
        self, epoch_index: int, recognized: Sequence[SemanticTrajectory]
    ) -> None:
        """Re-register one previously committed epoch after a restart.

        The sequences are already recognised (reloaded from the epoch
        artifact), so they enter the window without re-voting.  Epochs
        must be restored oldest-first; the windowed miner's exactness
        invariant makes the per-epoch grouping of ``add_many`` calls
        irrelevant to the final pattern state.
        """
        if epoch_index < self.next_epoch_index:
            raise ValueError(
                f"epoch {epoch_index} is not after the last restored "
                f"epoch ({self.next_epoch_index - 1})"
            )
        seq_ids = tuple(st.traj_id for st in recognized)
        self._window[epoch_index] = seq_ids
        self.miner.add_many(
            {st.traj_id: as_tag_sequence(st) for st in recognized}
        )
        for st in recognized:
            self._recognized[st.traj_id] = st
            if st.traj_id >= self.next_seq_id:
                self.next_seq_id = st.traj_id + 1
        self.next_epoch_index = epoch_index + 1

    # -- fine-grained output ---------------------------------------------

    def fine_patterns(self) -> List[FineGrainedPattern]:
        """Algorithm 4 refinement of the window's coarse patterns.

        ``member_ids`` of the returned patterns are stream sequence
        ids, not positional indices.
        """
        ids = sorted(self._recognized)
        if not ids:
            return []
        database = [self._recognized[i] for i in ids]
        position = {seq_id: k for k, seq_id in enumerate(ids)}
        coarse = [
            FrequentSequence(
                items=fs.items,
                support=fs.support,
                occurrences=tuple(
                    (position[seq_id], pos) for seq_id, pos in fs.occurrences
                ),
            )
            for fs in self.miner.frequent()
        ]
        fine = refine_patterns(
            coarse, database, self.mining_config, self._csd.projection
        )
        for pattern in fine:
            pattern.member_ids = [ids[k] for k in pattern.member_ids]
        return fine
