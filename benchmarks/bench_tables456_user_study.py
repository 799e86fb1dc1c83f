"""Tables IV, V, VI: the simulated user study.

Ten seeded simulated participants per cell, with accuracy/latency
driven by visual signals measured from the actual rendered artifacts
(see repro.study and the README's "Offline stand-ins").  Expected
shape, as in the paper: the terrain wins on accuracy *and* time on
every task and dataset, the gap widening on Task 2 (connectivity
tracing) and Task 3 (correlation reading under occlusion).
"""

from repro.study import format_table, run_task1, run_task2, run_task3


def test_table4_task1(benchmark, report):
    rows = benchmark.pedantic(
        lambda: run_task1(seed=0), rounds=1, iterations=1
    )
    report("table4_task1", format_table(rows))
    terrain = [r for r in rows if r.method == "terrain"]
    others = [r for r in rows if r.method != "terrain"]
    assert all(r.accuracy >= 0.9 for r in terrain)
    for t in terrain:
        same = [o for o in others if o.dataset == t.dataset]
        assert all(t.accuracy >= o.accuracy for o in same)
        assert all(t.mean_time < o.mean_time for o in same)


def test_table5_task2(benchmark, report):
    rows = benchmark.pedantic(
        lambda: run_task2(seed=0), rounds=1, iterations=1
    )
    report("table5_task2", format_table(rows))
    for dataset in {r.dataset for r in rows}:
        terrain = next(
            r for r in rows
            if r.dataset == dataset and r.method == "terrain"
        )
        for other in rows:
            if other.dataset == dataset and other.method != "terrain":
                assert terrain.accuracy >= other.accuracy
                assert terrain.mean_time < other.mean_time


def test_table6_task3(benchmark, report):
    rows = benchmark.pedantic(
        lambda: run_task3(seed=0), rounds=1, iterations=1
    )
    report("table6_task3", format_table(rows))
    terrain = next(r for r in rows if r.method == "terrain")
    openord = next(r for r in rows if r.method == "openord")
    assert terrain.accuracy >= openord.accuracy
    assert terrain.mean_time < openord.mean_time
