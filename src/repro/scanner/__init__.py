"""The ZMap/zgrab-style measurement toolchain.

Layered as: grabs (:mod:`grab`) → scan patterns (:mod:`schedule`,
:mod:`resumption`, :mod:`crossdomain`) → pluggable experiments
(:mod:`experiments`) → sharded streaming engine (:mod:`engine`) →
study configuration/persistence (:mod:`study`) → storage & query
(:mod:`records`, :mod:`datastore`).
"""

from .crossdomain import CrossDomainConfig, ProbeTarget, cross_domain_cache_probe
from .datastore import (
    IndexStats,
    JsonlWriter,
    LazyRecordView,
    ScanIndex,
)
from .checkpoint import CheckpointMismatch, CheckpointStore
from .engine import ShardResult, StudyAborted, StudyEngine, StudyStats, run_shard
from .experiments import (
    EVERY_DAY,
    CrossDomainExperiment,
    DailySweepExperiment,
    Experiment,
    ExperimentRegistry,
    ResumptionProbeExperiment,
    StudyContext,
    SupportScanExperiment,
    default_registry,
    shard_of,
)
from .grab import ZGrabber
from .records import (
    CHANNELS,
    CrossDomainEdge,
    ResumptionProbeResult,
    ScanObservation,
    read_jsonl,
    write_jsonl,
)
from .resumption import ProbeConfig, resumption_probe
from .schedule import SweepConfig, sweep, thirty_minute_scan
from .study import (
    StudyConfig,
    StudyDataset,
    load_dataset,
    run_study,
    run_study_with_stats,
    save_dataset,
)

__all__ = [
    "ZGrabber",
    "ScanIndex",
    "IndexStats",
    "JsonlWriter",
    "LazyRecordView",
    "ScanObservation",
    "ResumptionProbeResult",
    "CrossDomainEdge",
    "CHANNELS",
    "read_jsonl",
    "write_jsonl",
    "ProbeConfig",
    "resumption_probe",
    "SweepConfig",
    "sweep",
    "thirty_minute_scan",
    "CrossDomainConfig",
    "ProbeTarget",
    "cross_domain_cache_probe",
    "Experiment",
    "ExperimentRegistry",
    "StudyContext",
    "DailySweepExperiment",
    "SupportScanExperiment",
    "CrossDomainExperiment",
    "ResumptionProbeExperiment",
    "default_registry",
    "shard_of",
    "EVERY_DAY",
    "StudyEngine",
    "StudyStats",
    "StudyAborted",
    "ShardResult",
    "run_shard",
    "CheckpointStore",
    "CheckpointMismatch",
    "StudyConfig",
    "StudyDataset",
    "run_study",
    "run_study_with_stats",
    "save_dataset",
    "load_dataset",
]
