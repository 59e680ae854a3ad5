"""The in-process tally: scenario_mix seeds 1-3, 13 cycles each (1,092
requests), scored against the ground truth its generators force.

It drives the benchmark's own request streams (perfbench/workloads.py) and
judge (perfbench/groundtruth.py), which it only imports. Every request must
come back correct: no wrong verdict, no crash and no false reject.
"""

import itertools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
CYCLES = 13


def test_scenario_mix_tally_is_all_correct(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import groundtruth
    import workloads

    count = CYCLES * len(workloads.SCENARIO_CELLS)
    outcomes, misses = Counter(), Counter()
    for seed in SEEDS:
        stream = workloads.scenario_mix(seed, workloads.MEASURED)
        for request in itertools.islice(stream, count):
            try:
                outcome = groundtruth.judge(request.expected, request.run())
            except Exception as exc:  # noqa: BLE001 - the judge scores every exception
                outcome = groundtruth.judge(request.expected, None, exc)
            outcomes[outcome] += 1
            if outcome != groundtruth.CORRECT:
                misses[(request.cell, outcome)] += 1
    assert sum(outcomes.values()) == 1092
    assert outcomes[groundtruth.CORRECT] == 1092, dict(misses)
