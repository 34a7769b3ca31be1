"""The result line carries every metric named in BENCHMARK.json, with its unit."""

import json

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def one_problem(monkeypatch):
    """Shrink the corpus workload to its cheapest problem."""
    item = workloads.Item("mechanics", "mechanics", "corpus")
    monkeypatch.setattr(workloads, "generate", lambda name, seed: [item])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(one_problem, capsys, trace, key):
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:2] == ["metric", name] and line.split()[3] == unit
                   for line in lines), name
    (env_line,) = [line for line in lines if line.startswith('{"env"')]
    env = json.loads(env_line)["env"]
    assert {"python", "numpy", "nproc", "blas_threads", "git_sha", "seed", "problems"} <= set(env)


def test_tail_has_ten_values_above_it():
    values = [float(v) for v in range(30)]
    assert run.tail(values) == (19.0, pytest.approx(100.0 * 20 / 30))
    assert run.tail(values[:12]) == (11.0, 100.0)


def test_margin_digits():
    assert run.margin_digits([1e-7, 1e-6]) == pytest.approx(1.0)
    assert run.margin_digits([1.83e-5]) < 0
    assert run.margin_digits([]) == run.margin_digits([0.0]) == pytest.approx(11.0)
