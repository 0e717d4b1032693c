"""Every function the benchmark's tracer wraps still exists in ``fedtrust``.

``perfbench/tracer.py`` skips a target the program no longer defines, and
that layer's metrics then read 0; this test turns such a rename into a
failure. The tracer module is only imported, never installed; its request
counter wraps ``valuation.coalition_utility`` for the request-count test,
so every utility request must still enter that function.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from fedtrust import valuation
from fedtrust.attacks import AttackSpec
from fedtrust.data import PartitionMode, PartitionSpec, generate_synthetic, partition, train_test_split
from fedtrust.federation import TrainingConfig, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec
from fedtrust.nn import Architecture, OutputActivation, init_params

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The tracer's counters and its cache hook name these outside SPAN_TARGETS.
COUNTED = [
    ("seeding", "rng_from"),
    ("metrics", "evaluate"),
    ("valuation", "coalition_utility"),
    ("valuation", "CoalitionCache"),
]


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in load_tracer().SPAN_TARGETS] + COUNTED,
)
def test_tracer_target_exists(module, attr):
    owner = importlib.import_module(f"fedtrust.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_coalition_utility_takes_record_subset_metric_positionally():
    # the tracer's counter calls fn(record, subset, metric, *args, **kwargs)
    params = list(inspect.signature(valuation.coalition_utility).parameters.values())
    assert [p.name for p in params[:3]] == ["record", "subset", "metric"]
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert all(p.kind in positional for p in params[:3])


def eight_client_rounds():
    data = generate_synthetic(300, 4, 0.3, seed=4)
    train, test = train_test_split(data, 0.2, seed=4)
    parts = partition(train, PartitionSpec(PartitionMode.DIRICHLET, 8, 0.5, seed=4))
    init = init_params(Architecture((4, 6, 1), OutputActivation.SIGMOID), 4)
    records = run_training(init, parts, TrainingConfig(rounds=2, learning_rate=0.01, seed=4))
    ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 4), AttackSpec(0.3, 0.05, 5))
    return records, ctx


def test_requests_entering_coalition_utility(monkeypatch):
    # 8 clients, GTG without skipping or truncation, and LOO: per round and
    # metric, GTG asks for the empty and full coalitions and 8 prefixes of
    # each of ceil(0.05 * 8!) = 2017 permutations, LOO for 9 coalitions
    tracer = load_tracer().Tracer()
    monkeypatch.setattr(
        valuation, "coalition_utility", tracer.counted_utility(valuation.coalition_utility)
    )
    records, ctx = eight_client_rounds()
    cache = valuation.CoalitionCache(ctx)
    vcfg = valuation.ValuationConfig(eps1=0.0, eps2=0.05, eps3=0.0)
    valuation.score_rounds(records, ["gtg", "loo"], list(Metric), vcfg, cache)
    requests = tracer.counts["valuation.utility_requests"]
    assert requests == 2 * 4 * (2 + 8 * 2017 + 9) == 129176
    assert requests == cache.hits + cache.evaluations
    assert cache.evaluations == len(tracer.coalitions[""]) == 2 * 4 * 2**8
    assert cache.undefined == 0
