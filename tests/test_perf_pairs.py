"""The verdict rule of ``scripts/perf_pairs.py`` on canned run lists, and
its driver loop over a stand-in ``perf/run.py``.

``perf/README.md`` "Stating a claim", steps 3-4: a gain needs >= 9/10 pair
wins *and* a median gap beyond the parent's own inter-quartile distance;
"no worse" needs the medians within the bound *and* a spread narrow enough
to tell, else the metric is "unresolved".
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perf_pairs", Path(__file__).parents[1] / "scripts" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)
verdict = perf_pairs.verdict

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def shifted(values, factor, swap=()):
    """``values`` scaled by ``factor``, except the pairs in ``swap``, which
    lose by the same factor."""
    return [v / factor if i in swap else v * factor for i, v in enumerate(values)]


def test_quartiles_are_counted_among_the_runs():
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    row = verdict(PARENT, shifted(PARENT, 1.2), "higher", 0.25)
    assert row["verdict"] == "gain" and row["wins"] == 10
    assert row["relative_change"] == pytest.approx(0.2)
    # Nine wins are enough, eight are not.
    assert verdict(PARENT, shifted(PARENT, 1.2, swap={3}), "higher", 0.25)[
        "verdict"
    ] == "gain"
    assert verdict(PARENT, shifted(PARENT, 1.2, swap={3, 6}), "higher", 0.25)[
        "verdict"
    ] == "no worse"
    # 10/10 wins, but by less than the parent's own quartile distance.
    row = verdict(PARENT, shifted(PARENT, 1.005), "higher", 0.25)
    assert row["wins"] == 10 and row["verdict"] == "no worse"


def test_direction_and_ties():
    latency = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert verdict(latency, shifted(latency, 0.8), "lower", 0.25)["verdict"] == "gain"
    assert verdict(latency, shifted(latency, 1.3), "lower", 0.25)["verdict"] == "worse"
    # A tie is a win for neither side: 8 wins + 2 ties is not nine tenths.
    change = shifted(PARENT, 1.2)
    change[0], change[1] = PARENT[0], PARENT[1]
    row = verdict(PARENT, change, "higher", 0.25)
    assert row["wins"] == 8 and row["verdict"] == "no worse"


def test_worse_is_a_median_beyond_the_bound():
    assert verdict(PARENT, shifted(PARENT, 0.7), "higher", 0.25)["verdict"] == "worse"
    assert verdict(PARENT, shifted(PARENT, 0.8), "higher", 0.25)["verdict"] == "no worse"
    assert verdict(PARENT, shifted(PARENT, 0.8), "higher", 0.15)["verdict"] == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [100.0, 160.0, 60.0, 150.0, 70.0, 100.0, 155.0, 65.0, 100.0, 140.0]
    row = verdict(noisy, shifted(noisy, 0.95), "higher", 0.25)
    assert row["spread"] > 0.25 and row["verdict"] == "unresolved"
    # The change's own runs can be the noisy side.
    assert verdict(PARENT, shifted(noisy, 0.95), "higher", 0.25)["verdict"] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    ahead = [v + 200.0 for v in noisy]
    assert min(ahead) > max(PARENT)
    assert verdict(PARENT, ahead, "higher", 0.25)["verdict"] in ("gain", "no worse")


def test_malformed_input_is_rejected():
    with pytest.raises(ValueError, match="same, non-zero number"):
        verdict(PARENT, PARENT[:-1], "higher", 0.25)
    with pytest.raises(ValueError, match="same, non-zero number"):
        verdict([], [], "higher", 0.25)
    with pytest.raises(ValueError, match="higher"):
        verdict(PARENT, PARENT, "faster", 0.25)


# A stand-in for ``perf/run.py``: a log line, then the result object —
# except that workload "alpha" never reports ``latency_p50_ms`` and
# workload "dies" exits 3 after a last line that is not JSON.
_FAKE_RUN = '''\
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
print("warming up", workload)
if workload == "dies":
    print("Traceback (most recent call last):")
    sys.exit(3)
metrics = {"subframes_per_s": {"value": 100.0}, "latency_p50_ms": {"value": 5.0}}
if workload == "alpha":
    del metrics["latency_p50_ms"]
print(json.dumps({"workload": workload, "correct": True, "failed": 0,
                  "attempted": 5, "metrics": metrics}))
'''


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "perf").mkdir()
    (tmp_path / "perf" / "run.py").write_text(_FAKE_RUN)
    benchmark = {
        "workloads": [{"name": "beta"}, {"name": "gamma"}],
        "end_to_end": [
            {"name": "subframes_per_s", "better": "higher", "bound": 0.25},
            {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
        ],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return str(tmp_path)


def _tables(out):
    return [line.split(",")[0] for line in out.splitlines() if ", seed 1: " in line]


def test_without_workload_every_workload_of_benchmark_json_runs(checkout, capsys):
    assert perf_pairs.main([checkout, checkout, "--seed", "1", "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert _tables(out) == ["beta", "gamma"]  # file order, one table each
    assert out.count("no worse") == 4 and out.count("failed share") == 2


def test_workload_is_repeatable_and_one_missing_row_fails_the_lot(checkout, capsys):
    argv = [checkout, checkout, "--seed", "1", "--pairs", "1"]
    assert perf_pairs.main(argv + ["--workload", "gamma"]) == 0
    assert _tables(capsys.readouterr().out) == ["gamma"]
    assert perf_pairs.main(argv + ["--workload", "alpha", "--workload", "beta"]) == 1
    out = capsys.readouterr().out
    assert _tables(out) == ["alpha", "beta"]
    assert out.count("missing") == 1 and out.count("no worse") == 3


def test_a_run_that_prints_no_result_object_is_reported_not_a_traceback(checkout):
    with pytest.raises(SystemExit) as excinfo:
        perf_pairs.run_once(checkout, "dies", 1)
    assert excinfo.value.code == (
        f"perf_pairs: run in {checkout} printed no result object (exit 3)"
    )


def test_json_writes_the_verdict_tables(checkout, tmp_path, capsys):
    path = tmp_path / "pairs.json"
    argv = [checkout, checkout, "--seed", "1", "--pairs", "2", "--json", str(path)]
    assert perf_pairs.main(argv + ["--workload", "alpha", "--workload", "beta"]) == 1
    capsys.readouterr()
    record = json.loads(path.read_text())
    assert record["schema"] == perf_pairs.SCHEMA == "perf-pairs/1"
    assert (record["seed"], record["pairs"], record["exit"]) == (1, 2, 1)
    assert list(record["workloads"]) == ["alpha", "beta"]
    alpha, beta = record["workloads"]["alpha"], record["workloads"]["beta"]
    assert alpha["metrics"]["latency_p50_ms"] == {"verdict": "missing"}
    for entry in (alpha, beta):
        assert entry["failed"] == {"parent": 0, "change": 0}
        assert entry["attempted"] == {"parent": 10, "change": 10}
    row = beta["metrics"]["subframes_per_s"]
    assert set(row) == {
        "verdict", "wins", "pairs", "parent", "change", "change_pct", "bound"
    }
    assert (row["verdict"], row["wins"], row["pairs"]) == ("no worse", 0, 2)
    assert (row["change_pct"], row["bound"]) == (0.0, 0.25)
    for side in ("parent", "change"):
        assert row[side] == {
            "q1": 100.0, "median": 100.0, "q3": 100.0, "runs": [100.0, 100.0]
        }
    assert beta["metrics"]["latency_p50_ms"]["parent"]["median"] == 5.0
