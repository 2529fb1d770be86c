"""Tests of the benchmark's own machinery (run: python -m pytest bench/tests)."""

from pathlib import Path

import numpy as np
import pytest

import benchstats
import hostspeed
import layertrace
import workloads


def _tracer_with_clock(times):
    ticks = iter(times)
    return layertrace.Tracer(clock=lambda: next(ticks))


def test_self_time_subtracts_children_on_nested_tree():
    # main [0, 10] -> a [1, 4] -> b [2, 3]; main -> c [5, 9]
    tracer = _tracer_with_clock([0, 1, 2, 3, 4, 5, 9, 10])
    main = tracer.enter("main")
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    tracer.exit(a)
    c = tracer.enter("c")
    tracer.exit(c, {"items": 7})
    tracer.exit(main)
    summary = tracer.summary()
    assert summary["main"]["self_s"] == 10 - 3 - 4
    assert summary["a"]["self_s"] == 3 - 1
    assert summary["b"]["self_s"] == 1
    assert summary["c"]["self_s"] == 4
    assert summary["c"]["counts"] == {"items": 7}
    total_self = sum(e["self_s"] for e in summary.values())
    assert total_self == summary["main"]["total_s"]


def test_repeated_spans_aggregate_calls_and_durations():
    tracer = _tracer_with_clock([0, 2, 10, 15])
    for _ in range(2):
        tracer.exit(tracer.enter("f"), {"bytes": 3})
    entry = tracer.summary()["f"]
    assert entry["calls"] == 2
    assert entry["durations_s"] == [2, 5]
    assert entry["counts"] == {"bytes": 6}


def test_span_closed_out_of_order_is_an_error():
    tracer = _tracer_with_clock(range(10))
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = benchstats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - benchstats.rank_of(p, n) >= 10


def test_tail_value_is_nearest_rank():
    durations = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    assert benchstats.percentile_ms(durations, 90.0) == pytest.approx(90.0)
    assert benchstats.percentile_ms(durations, 50.0) == pytest.approx(50.5)


def _argvs(workload, tmp: Path):
    argvs = workload.setup_commands(tmp / "setup")
    if isinstance(workload, workloads.KineticsStudy):  # the others read set-up files
        argvs += [op.commands for op in workload.ops(tmp / "setup", tmp / "work")]
    return argvs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generator_is_seed_deterministic(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first, again, other = make(3), make(3), make(4)
    assert vars(first).keys() == vars(again).keys()
    drawn = {k: v for k, v in vars(first).items() if k != "rng"}
    assert drawn == {k: v for k, v in vars(again).items() if k != "rng"}
    assert drawn != {k: v for k, v in vars(other).items() if k != "rng"}
    assert _argvs(first, tmp_path) == _argvs(again, tmp_path)


def test_kinetics_pass_cost_is_the_same_for_every_seed():
    for seed in range(5):
        studies = workloads.KineticsStudy(seed).studies
        assert sorted((len(s.rates), s.dt) for s in studies) == [
            (n, dt) for n in (3, 4, 5) for dt in (0.5, 1.0)]
        assert sorted(s.dt for s in studies if s.preset == "single-step") == [0.5, 1.0]


def test_tune_searches_cover_every_hidden_and_layers_batch_pair():
    wl = workloads.TuneSmall(5)
    assert sorted(h for h, _ in wl.searches) == [8, 16, 32]
    for hidden, master_seed in wl.searches:
        configs = workloads.trial_configs(master_seed, wl.TRIALS, workloads.tune_space(hidden))
        assert sorted((c.lstm_layers, c.batch_size) for c in configs) == [
            (l, b) for l in (1, 2, 3) for b in (32, 64)]
        assert {c.hidden_units for c in configs} == {hidden}


def test_install_wraps_every_binding_and_uninstall_restores():
    import pyrokin.cli  # noqa: F401  (loads every program module)
    import pyrokin.seqmodel.lstm as lstm
    import pyrokin.seqmodel.training as training

    original = lstm.forward_batch
    assert training.forward_batch is original
    tracer = layertrace.Tracer()
    installation = layertrace.install(tracer)
    try:
        wrapper = installation.wrappers["pyrokin.seqmodel.lstm.forward_batch"]
        assert lstm.forward_batch is wrapper
        assert training.forward_batch is wrapper
        assert wrapper.__wrapped__ is original
        for module, attr, value in installation.bindings:
            assert getattr(module, attr) is not value

        config = training.TrainConfig(hidden_units=5, lstm_layers=2, dropout=0.0,
                                      look_back=3)
        params = lstm.init_params(4, config, np.random.default_rng(0))
        X = np.random.default_rng(1).random((2, 3, 4))
        _, cache = training.forward_batch(params, X, config, want_cache=True)
        training.backward_batch(params, cache, np.ones(2))
        lstm.forward_batch(params, X, config)
    finally:
        installation.uninstall()
    assert lstm.forward_batch is original
    assert training.forward_batch is original
    assert not installation.bindings

    summary = tracer.summary()
    assert summary["seqmodel.lstm.forward_train"]["calls"] == 1
    assert summary["seqmodel.lstm.forward_infer"]["calls"] == 1
    flops, _ = layertrace.lstm_forward_counts(2, 3, [4, 5], 5)
    # per layer and step: 4 gates x (2*n*d*H + 2*n*H*H); dense 2*n*H
    assert flops == 3 * 4 * (2 * 2 * 4 * 5 + 2 * 2 * 5 * 5) \
        + 3 * 4 * (2 * 2 * 5 * 5 + 2 * 2 * 5 * 5) + 2 * 2 * 5
    counts = summary["seqmodel.lstm.forward_infer"]["counts"]
    assert counts["items"] == 2
    assert counts["flop"] == flops
    assert summary["seqmodel.lstm.backward_batch"]["counts"]["flop"] > 0


def test_cli_names_bound_by_import_are_wrapped():
    import pyrokin.cli as cli
    import pyrokin.synthkin as synthkin

    installation = layertrace.install(layertrace.Tracer())
    try:
        assert cli.simulate is synthkin.simulate
        assert cli.simulate is installation.wrappers["pyrokin.synthkin.simulate"]
        assert cli.main is installation.wrappers["pyrokin.cli.main"]
    finally:
        installation.uninstall()
    assert cli.simulate.__module__ == "pyrokin.synthkin"
    assert not hasattr(cli.simulate, "__wrapped__")


def test_speed_is_the_mean_of_nominal_over_probe_time():
    n = hostspeed.NOMINAL_S
    assert hostspeed.speed([n, n]) == pytest.approx(1.0)
    # Half the interval at full speed, half at half speed: 3/4 of the work.
    assert hostspeed.speed([n, 2 * n]) == pytest.approx(0.75)
    # An exponent k below 1: ops that feel only part of the probe's slowdown.
    assert hostspeed.speed([n, 2 * n], k=0.5) == pytest.approx((1 + 0.5**0.5) / 2)


def test_probed_subtracts_its_probes_and_restores_the_alarm():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probed(period_s=0.005) as timer:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(timer.samples) >= 4  # one before, several inside, one after
    inside = sum(timer.samples[1:-1])
    assert timer.calibrated_s == pytest.approx((timer.wall_s - inside) * timer.speed)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probed_without_period_probes_only_outside_the_block():
    with hostspeed.Probed(period_s=0.0) as timer:
        pass
    assert len(timer.samples) == 2
    assert timer.calibrated_s == pytest.approx(timer.wall_s * timer.speed)


def test_digest_ignores_manifests_only(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    (tmp_path / "manifest.json").write_text("{}")
    before = benchstats.digest_tree(tmp_path)
    (tmp_path / "manifest.json").write_text('{"timestamp": 1}')
    assert benchstats.digest_tree(tmp_path) == before
    (tmp_path / "a.csv").write_text("y\n")
    assert benchstats.digest_tree(tmp_path) != before


def test_workload_names_agree_with_runner_and_benchmark_json():
    import json

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
