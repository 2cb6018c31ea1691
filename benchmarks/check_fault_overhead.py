"""Disabled-failpoint overhead smoke: fault injection off must cost ~nothing.

The failpoint sites compiled into the serving and persistence hot paths
(``serve.compute``, ``checkpoint.write``, ...) follow the observability
layer's null-path discipline: with no plan installed, ``failpoints.fire``
is one module-global read and an ``is None`` check — no allocation, no
lock, no dict lookup.  Two checks enforce that, both machine-independent
(same-process A/B comparisons, never an absolute number against a stored
baseline):

1. **Micro**: a disabled ``failpoints.fire`` call must cost well under a
   microsecond-scale budget.
2. **Macro**: the smoke-sized cold serving path with failpoints disabled
   must not be slower than the same path with a plan *armed* on an
   unrelated site beyond a generous noise margin.  The armed run does
   strictly more work per fire (plan lookup, hit counting under a lock),
   so a disabled run losing by more than the margin means the disabled
   path regressed.  Median over interleaved rounds, like
   ``check_obs_overhead.py``.

Run from CI after the chaos-drill smoke; exits non-zero on violation.
"""

from __future__ import annotations

import statistics
import sys
import time
import timeit

from repro import faults
from repro.core import GRAFICS
from repro.data import make_experiment_split, three_story_campus_building
from repro.faults import FaultPlan

from bench_online_inference import CONFIG, SMOKE, measure_cold_serving

#: Per-call budget for a disabled ``failpoints.fire``.  Two orders of
#: magnitude above the measured cost (~60ns) so runner noise cannot trip
#: it, but far below an accidental allocation or lock acquisition.
MAX_DISABLED_FIRE_SECONDS = 5e-6

#: The disabled run must reach at least this fraction of the armed run's
#: throughput (disabled does strictly less work; margin absorbs noise).
MIN_DISABLED_OVER_ARMED = 0.7

#: Interleaved disabled/armed rounds the macro check medians over.
#: Eleven, as in ``check_pool_overhead.py``: on a shared 2-CPU host the
#: per-round spread is wider than five samples can pin a median inside.
AB_ROUNDS = 11


def check_disabled_fire_cost() -> float:
    faults.uninstall()

    def body():
        faults.fire("serve.compute")

    per_call = min(timeit.repeat(body, repeat=5, number=20000)) / 20000
    print(f"disabled failpoint fire: {per_call * 1e9:.0f} ns/call "
          f"(budget {MAX_DISABLED_FIRE_SECONDS * 1e9:.0f} ns)")
    assert per_call < MAX_DISABLED_FIRE_SECONDS, (
        f"disabled failpoints.fire costs {per_call * 1e6:.2f}us per call; "
        "the null-path check has regressed")
    return per_call


def check_cold_path_ratio() -> tuple[float, float]:
    sizes = SMOKE
    dataset = three_story_campus_building(
        records_per_floor=sizes["records_per_floor"], seed=7)
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    model = GRAFICS(CONFIG).fit(list(split.train_records), split.labels)
    probes = [r.without_floor()
              for r in split.test_records[: sizes["probes"] * 2]]

    def measure(armed: bool) -> float:
        if armed:
            # Armed on a site the cold serving path never reaches, and a
            # hit number it will never count to on the sites it does: the
            # plan machinery runs on every serve.compute fire but injects
            # nothing, isolating the bookkeeping cost.
            faults.install(FaultPlan().fail("retrain.fit",
                                            hits=[10 ** 9]))
        else:
            faults.uninstall()
        try:
            result = measure_cold_serving(model, dataset, probes,
                                          sizes["cold_predicts"])
        finally:
            faults.uninstall()
        return result["records_per_s"]

    ratios: list[float] = []
    rounds: list[tuple[float, float]] = []
    for round_index in range(AB_ROUNDS):
        if round_index % 2 == 0:
            disabled = measure(armed=False)
            armed = measure(armed=True)
        else:
            armed = measure(armed=True)
            disabled = measure(armed=False)
        rounds.append((disabled, armed))
        ratios.append(disabled / armed)
    ratio = statistics.median(ratios)
    print(f"cold path over {AB_ROUNDS} interleaved rounds: disabled/armed "
          f"min {min(ratios):.2f} / median {ratio:.2f} / "
          f"max {max(ratios):.2f} "
          f"(floor {MIN_DISABLED_OVER_ARMED} on the median); "
          f"per-round ratios {[f'{r:.2f}' for r in ratios]}")
    assert ratio >= MIN_DISABLED_OVER_ARMED, (
        f"cold path with failpoints disabled lost to the armed run "
        f"(median ratio {ratio:.2f} over {AB_ROUNDS} interleaved rounds); "
        "the disabled failpoint path is doing real work")
    return rounds[0]


def main() -> int:
    started = time.perf_counter()
    check_disabled_fire_cost()
    check_cold_path_ratio()
    print(f"fault-injection overhead smoke passed in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
