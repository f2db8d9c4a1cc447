"""repro.runner — fault-tolerant, resumable pipeline execution.

The robustness layer over the Pervasive Miner stages: streaming
validated ingestion with record quarantine (``repro.data.io.iter_trips`` +
:class:`Quarantine`), checkpoints with a strict-JSON manifest,
crash/resume with bit-identical results, and retry-with-backoff
checkpoint writes.  Both runners
commit through one module, :mod:`repro.runner.commit`.  Faults are
injected through :func:`repro.ioutil.fault_hook`.  See
``docs/RUNNER.md``.

>>> from repro.runner import PipelineRunner                # doctest: +SKIP
>>> runner = PipelineRunner("runs/april", resume=True)     # doctest: +SKIP
>>> result = runner.run(pois, trajectories)                # doctest: +SKIP
"""

from repro.runner.commit import (
    checkpoint,
    config_hash,
    retry_with_backoff,
)
from repro.runner.quarantine import Quarantine
from repro.runner.runner import (
    CSD_ARTIFACT,
    MANIFEST_NAME,
    RECOGNIZED_ARTIFACT,
    Manifest,
    PipelineRunner,
    input_digest,
    parse_manifest,
)
from repro.runner.stream import (
    STREAM_MANIFEST_NAME,
    StreamManifest,
    StreamRunner,
    StreamRunReport,
    parse_stream_manifest,
)

__all__ = [
    "CSD_ARTIFACT",
    "STREAM_MANIFEST_NAME",
    "StreamManifest",
    "StreamRunner",
    "StreamRunReport",
    "parse_stream_manifest",
    "MANIFEST_NAME",
    "Manifest",
    "PipelineRunner",
    "Quarantine",
    "RECOGNIZED_ARTIFACT",
    "checkpoint",
    "config_hash",
    "input_digest",
    "parse_manifest",
    "retry_with_backoff",
]
