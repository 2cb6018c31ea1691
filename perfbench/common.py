"""Inputs, statistics and host facts shared by every workload.

The fleet is the repo's heterogeneous ``microsoft_like_campus`` generator
(2-12 floors per building).  The fleet seed fixes its layout and each
building's train/test split and label budget, so runs with different
``--seed`` values serve the same trained models; it also fixes which
records are hot and which MACs churn.  The run seed picks the RSS jitter
that makes a fingerprint never-seen, the order in which held-out records
are replayed and the arrival schedule.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not SRC.is_dir():
    raise SystemExit(f"perfbench: the program sources are missing ({SRC})")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro import GraficsConfig  # noqa: E402
from repro.core.registry import MultiBuildingFloorService  # noqa: E402
from repro.core.types import SignalRecord  # noqa: E402
from repro.data import (  # noqa: E402
    make_experiment_split,
    microsoft_like_campus,
)
from repro.evaluation import ConfusionMatrix  # noqa: E402

FLEET_BUILDINGS = 4
RECORDS_PER_FLOOR = 60
#: The fleet seed; ``--fleet-seed`` overrides it to check a claim on
#: buildings and models the change was not tuned on.
DEFAULT_FLEET_SEED = 0
#: Jitter added to every RSS reading of a never-seen fingerprint, in dBm.
#: Well beyond the serving cache's ``rss_quantum`` (1 dBm), so a jittered
#: copy never shares a cache key with its source or with another copy.
JITTER_DB = 3.0
#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The served pair of a record that got no answer: never a true one.
UNANSWERED = (None, None)
#: CPU time of one :func:`_reference_work` on an unloaded 2-CPU Xeon host
#: (the one the bounds were fixed on).  Closed-loop figures are scaled to
#: a host that runs the reference in this time.
REFERENCE_S = 0.4e-3


def _reference_work() -> int:
    """A fixed slice of interpreter work: arithmetic and dict stores."""
    total, table = 0, {}
    for i in range(3000):
        total += i * i
        table[i & 127] = total
    return total


class HostSpeed:
    """How fast the host runs now, probed between the measured operations.

    The host's CPUs are shared with other machines: the same code ran
    20-30% slower for seconds to minutes at a time (and CPU time slowed
    with wall time, so the slowdown is the core's, not preemption).
    Closed-loop throughput and latency follow it one for one.  A probe
    times :func:`_reference_work` in this thread's CPU time, so waiting
    for the GIL or for a pool worker does not count; ``factor`` is the
    median probe over :data:`REFERENCE_S`, above 1 on a slow host.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        started = time.thread_time()
        _reference_work()
        self.samples.append(time.thread_time() - started)

    @property
    def factor(self) -> float:
        return median(self.samples) / REFERENCE_S

    def summary(self) -> dict:
        return {"probes": len(self.samples), "factor": self.factor,
                "probe_ms_p10_p50_p90": [
                    1e3 * percentile(self.samples, q) for q in (10, 50, 90)]}


@dataclass
class Fleet:
    """The generated buildings plus the split of each."""

    seed: int
    datasets: list
    splits: dict            # building_id -> DatasetSplit
    config: GraficsConfig
    #: Cache keys of every never-seen fingerprint issued so far.
    issued_keys: set = field(default_factory=set)

    @property
    def building_ids(self) -> list[str]:
        return [dataset.building_id for dataset in self.datasets]

    def fit_registry(self) -> MultiBuildingFloorService:
        """Fit every building with the program's default fit path."""
        registry = MultiBuildingFloorService(self.config)
        for dataset in self.datasets:
            split = self.splits[dataset.building_id]
            registry.fit_building(dataset.subset(split.train_records),
                                  split.labels)
        return registry

    def held_out(self) -> list[tuple[str, SignalRecord]]:
        """Every held-out record with its building, in a seeded order."""
        return [(building_id, record)
                for building_id in self.building_ids
                for record in self.splits[building_id].test_records]


def make_fleet(fleet_seed: int) -> Fleet:
    datasets = microsoft_like_campus(num_buildings=FLEET_BUILDINGS,
                                     records_per_floor=RECORDS_PER_FLOOR,
                                     seed=fleet_seed)
    splits = {dataset.building_id: make_experiment_split(
                  dataset, labels_per_floor=4, seed=fleet_seed)
              for dataset in datasets}
    # Program defaults throughout (kernel, sampler mode, embedding size);
    # unreachable clusters are allowed so no generated building can fail
    # its fit.
    return Fleet(seed=fleet_seed, datasets=datasets, splits=splits,
                 config=GraficsConfig(allow_unreachable_clusters=True))


def jittered(record: SignalRecord, record_id: str, rng: random.Random,
             rename: dict | None = None) -> SignalRecord:
    """A never-seen copy of ``record`` under a fresh id."""
    rss = {}
    for mac, value in record.rss.items():
        if rename is not None:
            mac = rename.get(mac, mac)
        rss[mac] = value + rng.uniform(-JITTER_DB, JITTER_DB)
    return replace(record, record_id=record_id, rss=rss)


def floor_scores(truth: dict, served: dict) -> tuple[float, float]:
    """Micro- and macro-F of served floors, as in the paper.

    ``truth`` and ``served`` map a record id to ``(building, floor)``.
    Every record in ``truth`` is scored; one served by the wrong building
    counts as a wrong floor.  One missing from ``served`` (rejected or
    errored) is a false negative of its true class and a false positive
    of none, so a few failures lower recall without adding an empty class
    to the macro average.  With every record answered this equals
    ``evaluate_predictions``.
    """
    classes: dict = {UNANSWERED: 0}

    def label(pair) -> int:
        return classes.setdefault(pair, len(classes))

    true = [label(pair) for pair in truth.values()]
    predicted = [label(served.get(rid, UNANSWERED)) for rid in truth]
    confusion = ConfusionMatrix.from_labels(true, predicted,
                                            floors=range(len(classes)))
    # Column and row 0 are the unanswered class: it is no floor's class.
    tp = confusion.true_positives()[1:]
    fp = confusion.false_positives()[1:]
    fn = confusion.false_negatives()[1:]
    micro = _f(_ratio(tp.sum(), tp.sum() + fp.sum()),
               _ratio(tp.sum(), tp.sum() + fn.sum()))
    macro = _f(_ratio(tp, tp + fp).mean(), _ratio(tp, tp + fn).mean())
    return micro, macro


def _ratio(numerator, denominator):
    numerator = np.asarray(numerator, dtype=float)
    denominator = np.asarray(denominator, dtype=float)
    return np.divide(numerator, denominator, out=np.zeros_like(numerator),
                     where=denominator > 0)


def _f(precision, recall) -> float:
    return float(_ratio(2 * precision * recall, precision + recall))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def host_fingerprint() -> dict:
    """The facts that decide whether two results are comparable."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: report what is known
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_env": {name: os.environ.get(name)
                     for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "default_start_method": multiprocessing.get_start_method(
            allow_none=True) or "unset",
    }
