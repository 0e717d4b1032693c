"""Traced run of the fedtrust CLI: spans at every layer boundary.

    python3 tracer.py SPANS_CSV COUNTS_JSON CLI_ARG...

runs ``fedtrust.cli.main(CLI_ARG...)`` in this process after wrapping the
public functions of each layer. A wrapped function records a span (name,
start, end, parent span); the hottest tiny calls (``rng_from``,
``evaluate``, ``coalition_utility``) only bump counters. Modules bind
imported names (``from .nn import predict_batch``), so every module that
holds a target function gets the wrapper. Spans stay in memory and are
written once the CLI returns; ``summarize`` turns them into per-layer
metrics. A target the program no longer defines is skipped and named in
the counts file, and its metrics read 0.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import csv  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

# (module, attribute, span name). Several attributes may share a span name.
SPAN_TARGETS = [
    ("metrics", "perf", "metrics.perf"),
    ("metrics", "fair", "metrics.fair"),
    ("metrics", "rel", "metrics.rel"),
    ("metrics", "res", "metrics.res"),
    ("attacks", "pgd_batch", "attacks.pgd"),
    ("nn", "predict_batch", "nn.predict"),
    ("nn", "input_gradient_batch", "nn.input_grad"),
    ("nn", "loss_and_param_grads", "nn.param_grad"),
    ("nn", "adam_step", "nn.optimizer"),
    ("nn", "sgd_step", "nn.optimizer"),
    ("federation", "local_train", "federation.local_train"),
    ("federation", "fedavg", "federation.fedavg"),
    ("federation", "RunWriter.write_round", "federation.checkpoint"),
    ("valuation", "exact_shapley_round", "valuation.exact"),
    ("valuation", "gtg_shapley_round", "valuation.gtg"),
    ("valuation", "loo_round", "valuation.loo"),
    ("data", "generate_synthetic", "data.build"),
    ("data", "load_csv", "data.build"),
    ("data", "train_test_split", "data.build"),
    ("data", "partition", "data.build"),
    ("analysis", "build_report", "analysis.report"),
    ("analysis", "write_report", "analysis.report"),
    ("experiment", "run_fold", "experiment.fold"),
    ("valuation", "write_scores_csv", "experiment.scores_io"),
    ("valuation", "write_totals_csv", "experiment.scores_io"),
]
SPAN_NAMES = sorted({name for _, _, name in SPAN_TARGETS})
# Spans whose first positional argument after the model is a row batch.
ROW_SPANS = ("attacks.pgd", "nn.predict", "nn.input_grad")
SCHEMES = {"valuation.exact": "exact", "valuation.gtg": "gtg", "valuation.loo": "loo"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float] | None] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.scheme = [""]
        self.fold = [0]
        self.coalitions: dict[str, set] = defaultdict(set)
        self.caches: list = []
        self.missing: list[str] = []

    def span(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        rows = name in ROW_SPANS

        def wrapper(*args, **kwargs):
            if rows:
                counts[name + "_rows"] += len(args[1])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end)

        return wrapper

    def scheme_span(self, name: str, fn):
        inner = self.span(name, fn)
        scheme = self.scheme

        def wrapper(*args, **kwargs):
            scheme.append(SCHEMES[name])
            try:
                return inner(*args, **kwargs)
            finally:
                scheme.pop()

        return wrapper

    def fold_span(self, name: str, fn):
        inner = self.span(name, fn)
        fold = self.fold

        def wrapper(cfg, fold_idx, *args, **kwargs):
            fold.append(fold_idx)
            try:
                return inner(cfg, fold_idx, *args, **kwargs)
            finally:
                fold.pop()

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_evaluate(self, fn, undefined_error):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["metrics.evaluations"] += 1
            try:
                return fn(*args, **kwargs)
            except undefined_error:
                counts["metrics.undefined"] += 1
                raise

        return wrapper

    def counted_utility(self, fn):
        counts, scheme, fold, coalitions = self.counts, self.scheme, self.fold, self.coalitions

        def wrapper(record, subset, metric, *args, **kwargs):
            counts["valuation.utility_requests"] += 1
            key = (fold[-1], record.round, tuple(sorted(set(subset))), str(getattr(metric, "value", metric)))
            coalitions[scheme[-1]].add(key)
            return fn(record, subset, metric, *args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Replace every binding of each target function across ``modules``."""
        wrapped = {}
        for mod_name, attr, name in SPAN_TARGETS:
            owner = modules.get(mod_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                if cls is None or not hasattr(cls, method):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(cls, method, self.span(name, getattr(cls, method)))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if name in SCHEMES:
                wrapped[id(fn)] = (fn, self.scheme_span(name, fn))
            elif name == "experiment.fold":
                wrapped[id(fn)] = (fn, self.fold_span(name, fn))
            else:
                wrapped[id(fn)] = (fn, self.span(name, fn))

        def counter(mod_name: str, attr: str, make) -> None:
            fn = getattr(modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
            else:
                wrapped[id(fn)] = (fn, make(fn))

        counter("seeding", "rng_from", lambda fn: self.counted("seeding.streams", fn))
        errors = modules["errors"]
        counter("metrics", "evaluate", lambda fn: self.counted_evaluate(fn, errors.MetricUndefinedError))
        counter("valuation", "coalition_utility", self.counted_utility)

        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        cache_cls = getattr(modules["valuation"], "CoalitionCache", None)
        if cache_cls is None:
            self.missing.append("valuation.CoalitionCache")
        else:
            original_init = cache_cls.__init__
            caches = self.caches

            def init(cache, *args, **kwargs):
                original_init(cache, *args, **kwargs)
                caches.append(cache)

            cache_cls.__init__ = init

    def write(self, spans_path: str, counts_path: str, wall_s: float) -> None:
        with open(spans_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start", "end"])
            for sid, (parent, name, start, end) in enumerate(self.spans):
                writer.writerow([sid, parent, name, repr(start - T0), repr(end - T0)])
        counts = dict(self.counts)
        counts["valuation.utilities_computed"] = sum(getattr(c, "evaluations", 0) for c in self.caches)
        counts["valuation.cache_hits"] = sum(getattr(c, "hits", 0) for c in self.caches)
        for scheme in SCHEMES.values():
            counts[f"valuation.{scheme}_coalitions"] = len(self.coalitions.get(scheme, ()))
        with open(counts_path, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": wall_s, "counts": counts, "missing": self.missing}, fh, indent=1, sort_keys=True)


def summarize(spans_path, counts_path) -> dict[str, float]:
    """Per-layer metrics from a traced run's span and count files.

    A span's self time is its duration minus its children's durations; a
    layer metric sums the self times of its spans. ``trace.outside_s`` is
    the wall time covered by no span, so the self times plus it give
    ``trace.wall_s``.
    """
    with open(counts_path, encoding="utf-8") as fh:
        data = json.load(fh)
    counts = Counter(data["counts"])
    starts, ends, parents, names = [], [], [], []
    with open(spans_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for sid, parent, name, start, end in reader:
            if int(sid) != len(starts):
                raise ValueError(f"{spans_path}: span ids are not consecutive at {sid}")
            starts.append(float(start))
            ends.append(float(end))
            parents.append(int(parent))
            names.append(name)
    duration = [end - start for start, end in zip(starts, ends)]
    self_time = list(duration)
    top_level = 0.0
    for sid, parent in enumerate(parents):
        if parent < 0:
            top_level += duration[sid]
            continue
        if not (parent < sid and starts[parent] <= starts[sid] and ends[sid] <= ends[parent]):
            raise ValueError(f"{spans_path}: span {sid} does not nest inside its parent {parent}")
        self_time[parent] -= duration[sid]
    per_name = defaultdict(float)
    calls = Counter(names)
    for name, value in zip(names, self_time):
        per_name[name] += value
    unknown = set(per_name) - set(SPAN_NAMES)
    if unknown:
        raise ValueError(f"{spans_path}: unknown span names {sorted(unknown)}")

    requests = counts["valuation.utility_requests"]
    # One self time for the three schemes: a scheme a workload does not run
    # would otherwise report a time that is 0 on every run.
    out = {f"{name}_s": per_name[name] for name in SPAN_NAMES if name not in SCHEMES}
    out["valuation.schemes_s"] = sum(per_name[name] for name in SCHEMES)
    out.update(
        {
            "seeding.streams": counts["seeding.streams"],
            "metrics.evaluations": counts["metrics.evaluations"],
            "metrics.undefined": counts["metrics.undefined"],
            "attacks.pgd_calls": calls["attacks.pgd"],
            "attacks.pgd_rows": counts["attacks.pgd_rows"],
            "nn.predict_calls": calls["nn.predict"],
            "nn.predict_rows": counts["nn.predict_rows"],
            "nn.input_grad_calls": calls["nn.input_grad"],
            "nn.input_grad_rows": counts["nn.input_grad_rows"],
            "federation.train_steps": calls["nn.optimizer"],
            "federation.fedavg_calls": calls["federation.fedavg"],
            "valuation.utility_requests": requests,
            "valuation.utilities_computed": counts["valuation.utilities_computed"],
            "valuation.cache_hit_ratio": counts["valuation.cache_hits"] / requests if requests else 0.0,
            "valuation.exact_coalitions": counts["valuation.exact_coalitions"],
            "valuation.gtg_coalitions": counts["valuation.gtg_coalitions"],
            "valuation.loo_coalitions": counts["valuation.loo_coalitions"],
            "trace.wall_s": data["wall_s"],
            "trace.outside_s": data["wall_s"] - top_level,
        }
    )
    return out


def main(argv: list[str]) -> int:
    spans_path, counts_path, cli_args = argv[0], argv[1], argv[2:]
    import fedtrust  # noqa: F401  (imports every layer module)
    from fedtrust import analysis, attacks, cli, data, errors, experiment, federation, metrics, nn, seeding, valuation

    tracer = Tracer()
    tracer.install(
        {
            "analysis": analysis,
            "attacks": attacks,
            "cli": cli,
            "data": data,
            "errors": errors,
            "experiment": experiment,
            "federation": federation,
            "metrics": metrics,
            "nn": nn,
            "seeding": seeding,
            "valuation": valuation,
            "package": fedtrust,
        }
    )
    code = cli.main(cli_args)
    wall_s = time.perf_counter() - T0
    tracer.write(spans_path, counts_path, wall_s)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
