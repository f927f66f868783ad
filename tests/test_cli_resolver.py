"""The one path from scenario flags to a Scenario.

``run``, ``diagnose`` and ``trace`` share one flag set and one resolver.
The tables pin the resolved ``Scenario.name`` and the sha256 of
``repr(cache_key)`` for command lines taken from the README, the CI
jobs and the CLI tests, as the per-subcommand resolvers produced them
before they were merged, so a resolver change that renames or reshapes
any run fails here.
"""

import hashlib
import json
import re
from dataclasses import replace

import pytest

from repro.cli import _build_parser, _resolve_scenario, main
from repro.errors import ConfigurationError

#: (scenario flags, Scenario.name, sha256 of repr(cache_key)) as ``run``.
SHARED = [
    ("--environment virtualized --composition browsing",
     "virtualized/browsing",
     "2bf5a097cc502c25aa5e235d06cbde8e46094004db549a39c25ef4d8e9c19e8a"),
    ("--environment bare-metal --composition bidding",
     "bare-metal/bidding",
     "a22b84a3fbe0c02078524f897b3044b9d99cd5d605b0c571dc6a96c0c4f07f01"),
    ("--scenario consolidated_web_batch",
     "consolidated_web_batch",
     "9309400f9def778d9557c3adfa7245d4cbe383d5e1c3631248adfa706dbcb7e0"),
    ("--scenario consolidated_web_batch --duration 60",
     "consolidated_web_batch",
     "764ccd69308427a4b8682d8e2d9bef2e4a38c355fb283c2efc4df7f362626fed"),
    ("--scenario consolidated_web_batch --duration 20",
     "consolidated_web_batch",
     "ed22f6e2c6ba744af0250c98288556c9f1dbf7d83ebb0c197c86e2904d6a2f83"),
    ("--scenario autoscaled_flash_crowd --controller pid",
     "autoscaled_flash_crowd",
     "9659da142502ba2809be8d9357868a487973bd84d8b053deae20843cd8d79315"),
    ("--scenario autoscaled_flash_crowd --controller predictive",
     "autoscaled_flash_crowd",
     "ff04cdbd2dad46e6dd68b3ecb14fbfe596a7b6959ddb282e08c365772802d4f7"),
    ("--scenario autoscaled_flash_crowd --controller static",
     "autoscaled_flash_crowd_static",
     "15b3f96268d593af995b6a7df6f07cefe8677465e43ef8dd83874a20289b9158"),
    ("--scenario autoscaled_flash_crowd_static --controller threshold",
     "autoscaled_flash_crowd",
     "14af7f0f85a6f22fac08205e34c9b845a8fe93bb23abfb4389ca4fd38a0ccada"),
    ("--scenario virtualized/browsing --controller threshold",
     "virtualized/browsing@threshold",
     "3a17258249406efb673b993c0e4d9fd5cf55536aed5525f488a68a75a49730d4"),
    ("--scenario virtualized/browsing --engine batched",
     "virtualized/browsing%batched",
     "6018d7aa4270f6097d1e8229bd08bf2fbe8158dd59ce1ecaec5e272b36f23067"),
    ("--scenario virtualized/browsing --engine batched --duration 60",
     "virtualized/browsing%batched",
     "544537f1b65015ad13722911ee9ddd2501f8c420253b56b4958f783d8ba5d878"),
    ("--scenario virtualized/browsing",
     "virtualized/browsing",
     "2bf5a097cc502c25aa5e235d06cbde8e46094004db549a39c25ef4d8e9c19e8a"),
    ("--scenario migration_rebalance",
     "migration_rebalance",
     "22fb3ec46fbb1ddb9d4ba50cadda34c3881f3a31105d1b1ab965ce2ad671c9c2"),
    ("--scenario migration_rebalance --duration 90 --clients 400",
     "migration_rebalance",
     "dda10f705fdc0925d43fac5e042a77b2086fe6554a14e4a212a61fa735f4674f"),
    ("--scenario detect_and_evacuate",
     "detect_and_evacuate",
     "423dcb93aec9ec7f5c9c96361bc86ae7401478f77246bf55877df71022194350"),
    ("--scenario detect_and_evacuate --duration 60",
     "detect_and_evacuate",
     "cff1b6f31ce05d25ba1b1cf91bd0772c53715529cdd075964ca18001d876d34f"),
    ("--scenario noisy_neighbor_theft --seed 7",
     "noisy_neighbor_theft",
     "e14789326aa16b39b6a329c38a75b9cdf5cc38ee1f24783d58c2ab3b53ba39f6"),
    ("--traffic poisson --rate 500 --duration 120",
     "virtualized/browsing/open-poisson",
     "2e8c78d6953ce89d638acf171e727c25e5f4092714906befa1d8d5dc2227e831"),
    ("--traffic trace:offered.csv --session-budget 2000",
     "virtualized/browsing/open-trace",
     "40d13222ba97fc0cf82cba654175c915b22792fa126aeee745d1bd8c09a265d5"),
    ("--traffic poisson --rate 60 --session-budget 400 --duration 30 --clients 100",
     "virtualized/browsing/open-poisson",
     "89496a8c6f5e9238868d847b82a2832a98ea2f09f0f0862450198ec36ca79e0d"),
    ("--traffic mmpp --engine batched --duration 60",
     "virtualized/browsing/open-mmpp%batched",
     "6c790dffc309704153ff10d70e061a098325c0a3d2c5efdea203d92512c16c1d"),
    ("--scale 10",
     "virtualized/browsing",
     "ea7f4e2084d0fbc8ce35a1bf6ce5b60773d3cdb76b35d488b298295ce23255b3"),
    ("--scale 2 --duration 30 --clients 100",
     "virtualized/browsing",
     "1793f011f1a3bcb689167cdf938a42deef2c77326d3a23d99feba7d9dd81bc8f"),
    ("--servers 4 --placement priority --duration 120",
     "virtualized/browsing/s4",
     "3e816d78cb384551472d8b74fa1a8b4eba8f1d9d080f2df490cabd4c048963d1"),
    ("--servers 2 --placement balance --duration 20 --clients 80",
     "virtualized/browsing/s2",
     "52a5eeb039770d229f9c30d3cdb9772c172dfe46562180f3ded4bd645538ea2c"),
    ("--placement bestfit --duration 20",
     "virtualized/browsing",
     "38ddc050a441717ec912b3ace073412497f61b4a6fa60e333b0dd2d38f586059"),
    ("--faults crash@60 --servers 2 --duration 120",
     "virtualized/browsing/s2!crash@60",
     "6bde906195d814e3e184e32c2f76d89cea740d9f4ad7f48ebb66d9f9df11a190"),
    ("--faults degrade_disk@60:60:8 --controller threshold --duration 180 --clients 400",
     "virtualized/browsing@threshold!degrade_disk@60:60:8",
     "11865c8d8390b1442a04b7c5f76b440c86a750ebb7aebd4948c22195450e749e"),
    ("--faults cap_theft@10:10:0.2/web-vm --controller threshold --duration 30 --clients 80",
     "virtualized/browsing@threshold!cap_theft@10:10:0.2/web-vm",
     "c7e38f6a1b9deec633db50d62ef46403aab78f3f5cfa9250e94820810b8484a0"),
    ("--faults degrade_nic@60:60:16 --engine batched --duration 180 --clients 400",
     "virtualized/browsing!degrade_nic@60:60:16%batched",
     "358dcc76d652b36a0995c34c7b5752e6599b3240ffaadefcb13ab2830245a019"),
    ("--faults none --duration 40",
     "virtualized/browsing",
     "3911e495eea3b0c903ebd1045c50a0cc393a163697f8b3a825d31d75d0968444"),
    ("--duration 30 --clients 100",
     "virtualized/browsing",
     "c54d807937dbdb1736a0141fb841783e9a27ccee58e1cb5604b0c76419a3ee08"),
    ("--duration 60 --clients 200 --engine batched",
     "virtualized/browsing%batched",
     "cd503eb7bdc8b297807897ad40f296fe4d2115d1fab97398e48c6b6c99306d11"),
    ("--clients 400",
     "virtualized/browsing",
     "23d675b11cd224f9e70acebbbd1661a4667a240b172035d3160bc9aac8947c30"),
    ("--controller pid --traffic poisson --duration 60",
     "virtualized/browsing/open-poisson@pid",
     "7c78de51dbf351303921544de8f7f3923aad256df32040a1063f9fba0ac2336d"),
]

#: The same for whole command lines, subcommand-only flags included.
SUBCOMMAND = [
    ("run --trace-sample 0.05 --clients 400",
     "virtualized/browsing",
     "033abfa092825048854bf498225d30f6a8f2193952c2d7ec3cc60276e299be6f"),
    ("run --trace-sample 0.05 --faults degrade_nic@20:20:8 --duration 60 --clients 200 --no-report",
     "virtualized/browsing!degrade_nic@20:20:8",
     "607e24b48e271243ddcfd6e6450cc6898fe3e28806481dcc1cde42dd68a0ec1e"),
    ("run --scenario consolidated_web_batch --trace-sample 0.1 --engine batched",
     "consolidated_web_batch%batched",
     "f1524bd136ca1d50bbe07c070d3d9f971fb3a0da3cd20c9030d327fb4f68070e"),
    ("run --duration 10 --clients 50 --no-report --columnar",
     "virtualized/browsing",
     "9ed59409b3ff1869b8a5de7ef12edadf8127161841bfdeac8d5596b14e6cc135"),
    ("run --faults degrade_disk@60:60:8 --controller threshold --duration 180 --clients 400 --diagnose",
     "virtualized/browsing@threshold!degrade_disk@60:60:8",
     "11865c8d8390b1442a04b7c5f76b440c86a750ebb7aebd4948c22195450e749e"),
    ("diagnose --scenario detect_and_evacuate",
     "detect_and_evacuate",
     "423dcb93aec9ec7f5c9c96361bc86ae7401478f77246bf55877df71022194350"),
    ("diagnose --scenario detect_and_evacuate --duration 60",
     "detect_and_evacuate",
     "cff1b6f31ce05d25ba1b1cf91bd0772c53715529cdd075964ca18001d876d34f"),
    ("diagnose --faults crash@30 --servers 2 --duration 60 --clients 150",
     "virtualized/browsing/s2!crash@30",
     "f79c8de167bb5616fd6329087e184ac3f7cd78e3cb02e9585774737e6600ec67"),
    ("trace --scenario consolidated_web_batch --sample 0.05",
     "consolidated_web_batch",
     "55dbe5a5623b61cadfaa62668af5e16516a7002d7ef2a9b0515c9a4e312cdf56"),
    ("trace --faults degrade_nic@60:60:16 --engine batched --duration 180 --clients 400",
     "virtualized/browsing!degrade_nic@60:60:16%batched",
     "ef7d71a2659d2127e7fc16307a643641c9d76c52e5eabd4146f9b569a385a632"),
    ("trace --engine batched --duration 60 --clients 200 --sample 0.1",
     "virtualized/browsing%batched",
     "ce58c33f9da96bd6604662b74f637fcb03158ddb111e998ead285697d1d7439d"),
]


#: ``trace`` samples at 0.05 unless told otherwise.
TRACE_DEFAULT_SAMPLE = 0.05


@pytest.fixture(autouse=True)
def _default_horizon(monkeypatch):
    monkeypatch.delenv("REPRO_FULL_DURATION", raising=False)


def _resolve(command_line):
    return _resolve_scenario(_build_parser().parse_args(command_line.split()))


def _key_sha(spec):
    return hashlib.sha256(repr(spec.cache_key).encode()).hexdigest()


@pytest.mark.parametrize("flags,name,key_sha", SHARED)
def test_run_resolves_unchanged(flags, name, key_sha):
    spec = _resolve(f"run {flags}")
    assert spec.name == name
    assert _key_sha(spec) == key_sha


@pytest.mark.parametrize("flags", [row[0] for row in SHARED])
def test_subcommands_resolve_the_same_scenario(flags):
    run = _resolve(f"run {flags}")
    assert _resolve(f"diagnose {flags}") == run
    traced = replace(run, trace_sample=TRACE_DEFAULT_SAMPLE)
    assert _resolve(f"trace {flags}") == traced
    sampled = f"run --trace-sample {TRACE_DEFAULT_SAMPLE} {flags}"
    assert _resolve(sampled) == traced


@pytest.mark.parametrize("command_line,name,key_sha", SUBCOMMAND)
def test_command_line_resolves_unchanged(command_line, name, key_sha):
    spec = _resolve(command_line)
    assert spec.name == name
    assert _key_sha(spec) == key_sha


def test_diagnose_swaps_the_catalogue_policy_like_run():
    flags = "--scenario autoscaled_flash_crowd --controller pid"
    spec = _resolve(f"diagnose {flags}")
    assert spec == _resolve(f"run {flags}")
    entry = _resolve("run --scenario autoscaled_flash_crowd")
    assert spec.name == entry.name == "autoscaled_flash_crowd"
    assert spec.controller == replace(entry.controller, kind="pid")


def test_static_catalogue_entry_renamed_on_swap():
    spec = _resolve(
        "trace --scenario autoscaled_flash_crowd_static --controller pid"
    )
    assert spec.name == "autoscaled_flash_crowd"
    assert spec.controller.kind == "pid"


@pytest.mark.parametrize("command", ["run", "diagnose", "trace"])
def test_scenario_rejects_flags_the_entry_defines(command):
    with pytest.raises(ConfigurationError, match="--traffic"):
        _resolve(f"{command} --scenario consolidated_web_batch "
                 "--traffic poisson")


@pytest.mark.parametrize(
    "flag", ["--export-annotations", "--export-columnar", "--export-traces",
             "--export-chrome-trace", "--list"],
)
def test_fleet_rejects_single_run_flags(flag, tmp_path):
    argv = ["run", "--fleet", "two-pod", flag]
    if flag != "--list":
        argv.append(str(tmp_path / "out"))
    with pytest.raises(ConfigurationError, match=re.escape(flag)):
        main(argv)
    assert not (tmp_path / "out").exists()


def test_fleet_rejects_shared_scenario_flags_but_seed():
    with pytest.raises(ConfigurationError, match="--engine"):
        main(["run", "--fleet", "two-pod", "--seed", "3",
              "--engine", "batched"])


def test_diagnose_json_manifest_parses(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--duration", "20", "--clients", "60",
                 "--json", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["manifest"]["scenario"] == "virtualized/browsing"
    assert document["manifest"]["duration_s"] == 20.0
    assert isinstance(document["diagnoses"], list)


def test_trace_exports_chrome_trace(tmp_path, capsys):
    out = tmp_path / "spans.json"
    code = main(["trace", "--duration", "20", "--clients", "60",
                 "--sample", "0.2", "--export-chrome-trace", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["traceEvents"]
    assert "sampled" in capsys.readouterr().out
