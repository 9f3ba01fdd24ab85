"""SHA-256 pins of what every fault path outputs.

The other fault checks compare two runs of one tree, two engines, or
two transports, so a slip shared by the degradation chain and all of
its callers would pass them.  These digests pin the outputs themselves,
on the nine DaCapo presets at scale 0.002 with default seeds:

* ``run_jikes`` / ``run_v8`` result fields (``_run_digest`` of
  ``test_golden_traces``) under a retry/stall/backoff spec and a
  tick drop/dup spec, at 1 and 2 compiler threads;
* ``apply_to_schedule`` on each preset's IAR schedule: the plan plus the
  injector's summary;
* the Figure 5, 6 and 8 rows under faults, each with its tally, and
  under a misprediction spec (the schemes plan against a perturbed
  cost table);
* the faulty service soak: decision log, ``engine.summary()`` and the
  engine's trace events, with the decision cache on and off;
* one traced faulty Jikes run's events.

If a change *intends* to move a fault path's output, print the new
tables with ``PYTHONPATH=src:tests python tests/test_fault_pins.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.experiments import figure5, figure6, figure8
from repro.core import iar_schedule
from repro.faults import FaultInjector, apply_to_schedule
from repro.observability import Tracer
from repro.service import (
    DecisionCache,
    DecisionEngine,
    generate_events,
    run_replay,
)
from repro.vm.jikes import run_jikes
from repro.vm.v8 import run_v8
from repro.workloads import dacapo

from test_golden_traces import SCALE, _run_digest

# Retries, stalls and backoff on the compile path.
RETRY_SPEC = (
    "compile_fail=0.3,stall=0.3,stall_factor=3,retries=2,backoff=5,seed=11"
)
# Sampler faults plus a light compile-fail rate.
TICK_SPEC = "tick_drop=0.2,tick_dup=0.2,compile_fail=0.1,seed=7"
RUNTIME_SPECS = (RETRY_SPEC, TICK_SPEC)
# No retry budget: first encounters take the fail-safe, promotions fall back.
HARSH_SPEC = "compile_fail=0.6,retries=0,seed=2"
PLAN_SPECS = (RETRY_SPEC, HARSH_SPEC)
FIGURE_SPEC = "compile_fail=0.2,stall=0.2,retries=2,seed=4"
# The schemes plan against a mispredicted cost table, under faults.
MISPREDICT_SPEC = "mispredict=0.8,compile_fail=0.2,seed=9"
SERVICE_SPECS = (
    "compile_fail=0.1,retries=1,seed=3",
    "compile_fail=0.4,stall=0.3,retries=2,seed=5",
)
TRACE_SPEC = "compile_fail=0.5,retries=2,backoff=3,seed=1"


def _sha(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def runtime_digests(name: str):
    instance = dacapo.load(name, scale=SCALE)
    out = []
    for run in (run_jikes, run_v8):
        out.append(
            _sha(
                _run_digest(
                    run(
                        instance,
                        compile_threads=threads,
                        faults=FaultInjector(spec),
                    )
                )
                for spec in RUNTIME_SPECS
                for threads in (1, 2)
            )
        )
    return tuple(out)


def plan_digest(name: str) -> str:
    instance = dacapo.load(name, scale=SCALE)
    schedule = iar_schedule(instance)
    parts = []
    for spec in PLAN_SPECS:
        injector = FaultInjector(spec)
        plan = apply_to_schedule(instance, schedule, injector)
        parts.append(repr((plan, injector.summary())))
    return _sha(parts)


def figure_digest(driver, spec: str = FIGURE_SPEC) -> str:
    suite = {name: dacapo.load(name, scale=SCALE) for name in dacapo.BENCHMARKS}
    return _sha([repr(driver(suite, faults=spec))])


def service_digest(spec: str, cached: bool, path) -> str:
    events = generate_events(tenants=8, events=1000, scale=0.02, seed=0)
    tracer = Tracer()
    engine = DecisionEngine(
        faults=spec, cache=DecisionCache() if cached else None, tracer=tracer
    )
    run_replay(events, engine, decisions_out=path)
    return _sha(
        [path.read_bytes().decode(), repr(engine.summary()), repr(tracer.events)]
    )


def traced_jikes_events(threads: int):
    tracer = Tracer()
    run_jikes(
        dacapo.load("antlr", scale=SCALE),
        compile_threads=threads,
        tracer=tracer,
        faults=FaultInjector(TRACE_SPEC),
    )
    return tracer.events


# benchmark: (jikes, v8) digests over RUNTIME_SPECS x (1, 2) threads.
RUNTIME_DIGESTS = {
    "antlr": (
        "e0a090e9f773efe5847c64490c7374370007a2afb35c327c7aa5871c8693f6e8",
        "db24498afd020d2ec75d4ce60afa8459e7663c7f688dd090dd381918fc9a6388",
    ),
    "bloat": (
        "402472c68be6a974bef0c4627dcd5d48318cbda01064cefcf345eb7b48879e37",
        "0c13db819914933499a9d98df46406ecfffd43030937d686e6a8540eca96bdae",
    ),
    "eclipse": (
        "ba9722bf77c7d03226ceba20e101815a2801c43fa98b876514c05487d4af602a",
        "4620475ff994d9575033e7f75b289a2a14c3f63d2a0e7eb3636443b5b3749418",
    ),
    "fop": (
        "b14f981fee35307b9679a99d7ea5e044fdeecfe5c3544e09e215e7e7bbc73b09",
        "76971033ddeec974a36d34cf7662ae5cd48ae9f4432ae743750cb34aa8189049",
    ),
    "hsqldb": (
        "7bd44aa6876b5daa2026a60781d1cbd3500e208733c6110036cf197cd937b55e",
        "f23be6f922bda584f39c16d3da99780c73e8de6d5d816399e855cc1434119e82",
    ),
    "jython": (
        "1d2e7bbd4d42430dc9ad76ab1678e48278ca86636f919cd46c7f21fba97df843",
        "1d98ead2904fb0c0e480bbf6727d137bcd41aa4e17fcb076346544cb9862c423",
    ),
    "luindex": (
        "1a721fff0d866fd25d7aab8bd3f338765c5f397a8413d099bf6bc37e435d92eb",
        "10a90a78d4a05cd786c0ece0d470b307a2bee098655e4562c88755c59dfc9b17",
    ),
    "lusearch": (
        "6e6f665a3b5e28d594b5942289a3026f2483397f6982a8e86d2aa1e9bd64276c",
        "9646101dba0f9f6b7a0ab13cf2bed17db633ae0b8b58d6a1f618164c982cc6e2",
    ),
    "pmd": (
        "14bf7e1e141b5e7e03f17ae93e4064e05de80f657a3d0a41dd855460843241fd",
        "1fb579eff09c27cc61e7d4ef4cc70ca7e576433a8ede5fc38bef32913bb4ad0d",
    ),
}

# benchmark: digest of (plan, summary) over PLAN_SPECS on the IAR schedule.
PLAN_DIGESTS = {
    "antlr": "5e5129bb6513db9526aeea114a17e4d5329eafa8d6c03a158441da048abd16ce",
    "bloat": "79250bde6ebab1e00652bd728298164d7111e618a0ae1d521864d6a02f04cc92",
    "eclipse": "712fe6c5438dc45b27e84f1307af709e31a215679a3df9e2c0b2da139e61e697",
    "fop": "26f46884b929d39ca3bf8f53b0e7c582f48b7289e799347ac824810b67dd2274",
    "hsqldb": "f0c7de88f9a2df887b9645a38a2eac349f5ea4fe007ecc9a0de8cf7720d1c49a",
    "jython": "72a047e16d08d7c077f949721e3f20347bedb1d679e3fbd9bebc91272e4a0ca9",
    "luindex": "2119beaafaf4b66c0347698cd1486c4b5f2e24f5c13c58320d36bc7bf0bb0fb0",
    "lusearch": "3f694a1b9a828932967d7eb9604116addae52b55d25232f4c9ff326cba5e351e",
    "pmd": "7a9647f378e9cbbd29b9d1cd221a3a3689f75c47d34e2000730c010500304cdd",
}

# driver: digest of its rows on the nine presets under FIGURE_SPEC.
FIGURE_DIGESTS = {
    "figure5": "31917176f55935415aa2d4b0b619a7a61cc693474f1d547784d1216b7d61002d",
    "figure6": "1856250131b795a6794328ae61e6f924d172d73847108978558d063e38a55642",
    "figure8": "596b595eea21f69d06205cb61534e11e5ffb20d1d43b8a536d60e5fe832cab1f",
}

# driver: digest of its rows on the nine presets under MISPREDICT_SPEC.
MISPREDICT_DIGESTS = {
    "figure5": "06729fa2e4a8e8191c625d43d2020dcad03b779172ef8b1e04122b6c8fc26843",
    "figure6": "0ffdc8d7ebd02807efe6de9db738988232cc5b29be7fc0ec1738f8628d3cd82d",
    "figure8": "436a41e40bbd44a29e3c366c4521a3c23bae78ad599ce6bfd78e60dbff936605",
}

# (spec index, cache on): digest of decision log, summary, trace events.
SERVICE_DIGESTS = {
    (0, True): "bd5956743e064a89a91ce3cc70290f57ced82dcc0b71bc508d7bba93c0d64533",
    (0, False): "06df3e2e31849ce78da2b1a951697051368c070af72c7294e12f0cad1e79ae4c",
    (1, True): "830485b2e4b1f253d1bcbee3ac357bdbcc7a9236f887450432c66c4eabef1521",
    (1, False): "af9a6b4816c7de4cde81b14e4774e2aebc88b947c978855add1f40d5bbdcab1c",
}

# compiler threads: digest of the traced antlr Jikes run"s events.
TRACE_DIGESTS = {
    1: "05c1d45e58e5a21fae06af4ef0e1192f8ad596fd3175209e00441be13e5368b5",
    2: "167c557e096f3c5a8d70f55484f7b4a15139ed25dff4b19bd5b32ba769ce363b",
}


def test_pins_cover_the_whole_suite():
    assert set(RUNTIME_DIGESTS) == set(PLAN_DIGESTS) == set(dacapo.BENCHMARKS)


@pytest.mark.parametrize("name", sorted(dacapo.BENCHMARKS))
def test_faulty_runtime_digests(name):
    assert runtime_digests(name) == RUNTIME_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(dacapo.BENCHMARKS))
def test_faulty_plan_digests(name):
    assert plan_digest(name) == PLAN_DIGESTS[name]


@pytest.mark.parametrize(
    "driver", [figure5, figure6, figure8], ids=lambda d: d.__name__
)
def test_faulty_figure_digests(driver):
    assert figure_digest(driver) == FIGURE_DIGESTS[driver.__name__]


@pytest.mark.parametrize(
    "driver", [figure5, figure6, figure8], ids=lambda d: d.__name__
)
def test_mispredict_figure_digests(driver):
    digest = figure_digest(driver, MISPREDICT_SPEC)
    assert digest == MISPREDICT_DIGESTS[driver.__name__]


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "nocache"])
@pytest.mark.parametrize("index", range(len(SERVICE_SPECS)))
def test_faulty_service_soak_digests(index, cached, tmp_path):
    digest = service_digest(SERVICE_SPECS[index], cached, tmp_path / "log.jsonl")
    assert digest == SERVICE_DIGESTS[(index, cached)]


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_faulty_jikes_digest(threads):
    events = traced_jikes_events(threads)
    assert _sha([repr(events)]) == TRACE_DIGESTS[threads]
    # The spec exercises every fault event the runtime traces.
    names = {event.name.split()[0] for event in events}
    assert {"compile-fail", "fallback"} <= names


if __name__ == "__main__":
    import pathlib
    import tempfile

    print("RUNTIME_DIGESTS = {")
    for name in sorted(dacapo.BENCHMARKS):
        print(f"    {name!r}: {runtime_digests(name)!r},")
    print("}\nPLAN_DIGESTS = {")
    for name in sorted(dacapo.BENCHMARKS):
        print(f"    {name!r}: {plan_digest(name)!r},")
    print("}\nFIGURE_DIGESTS = {")
    for driver in (figure5, figure6, figure8):
        print(f"    {driver.__name__!r}: {figure_digest(driver)!r},")
    print("}\nMISPREDICT_DIGESTS = {")
    for driver in (figure5, figure6, figure8):
        digest = figure_digest(driver, MISPREDICT_SPEC)
        print(f"    {driver.__name__!r}: {digest!r},")
    print("}\nSERVICE_DIGESTS = {")
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(len(SERVICE_SPECS)):
            for cached in (True, False):
                path = pathlib.Path(tmp) / f"{index}-{cached}.jsonl"
                digest = service_digest(SERVICE_SPECS[index], cached, path)
                print(f"    ({index}, {cached}): {digest!r},")
    print("}\nTRACE_DIGESTS = {")
    for threads in (1, 2):
        print(f"    {threads}: {_sha([repr(traced_jikes_events(threads))])!r},")
    print("}")
