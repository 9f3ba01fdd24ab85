"""Golden make-spans for the nine DaCapo preset traces.

``dacapo.load(name, scale=0.002)`` with the default per-benchmark seed
is fully deterministic, as are the Jikes/V8 replays and IAR.  These
frozen numbers pin the whole pipeline — trace generation, the runtime
schemes, the IAR heuristic, and the simulator — so any unintended
behavioural change (e.g. to the vector engine or the cost model) fails
loudly here rather than drifting silently.

If a change *intends* to alter these numbers, regenerate with::

    python - <<'EOF'
    from repro.workloads import dacapo
    from repro.vm.jikes import run_jikes
    from repro.vm.v8 import run_v8
    from repro.core import iar_schedule, simulate
    for name in dacapo.BENCHMARKS:
        inst = dacapo.load(name, scale=0.002)
        print(name, run_jikes(inst).makespan, run_v8(inst).makespan,
              simulate(inst, iar_schedule(inst)).makespan)
    EOF
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import iar_schedule, lower_bound, simulate
from repro.vm.costbenefit import EstimatedModel
from repro.vm.jikes import JikesScheme, run_jikes
from repro.vm.v8 import V8Scheme, run_v8
from repro.workloads import dacapo

from test_runtime_differential import PerCallRuntime

SCALE = 0.002

# benchmark: (jikes, v8, iar) make-spans at scale=0.002, default seeds
GOLDEN = {
    "antlr": (7998.285116027675, 10320.782096080462, 5706.27773381961),
    "bloat": (14772.834362927138, 19980.117589993402, 10180.989866813039),
    "eclipse": (67354.23086817712, 85722.66380550139, 38497.07619120722),
    "fop": (8649.24403379285, 12706.756486806065, 4741.807510075641),
    "hsqldb": (14748.437645921535, 15914.60791401179, 7863.945646444044),
    "jython": (62048.71018128233, 38867.46613921631, 22307.239091960993),
    "luindex": (17331.09284163353, 17644.168738811655, 10826.282943508399),
    "lusearch": (9644.813430081582, 16317.385451352364, 6260.296912204336),
    "pmd": (9515.909929174939, 16029.519621210578, 6148.793892315409),
}


# benchmark: (jikes, v8) sampler ticks that observed a function, at
# scale=0.002 with default seeds.  Pinned exactly: the arithmetic
# tick-skipping sampler must fire the very same ticks the former
# per-period loop did.
GOLDEN_SAMPLES = {
    "antlr": (386, 346),
    "bloat": (381, 336),
    "eclipse": (350, 458),
    "fop": (748, 500),
    "hsqldb": (335, 298),
    "jython": (862, 434),
    "luindex": (483, 380),
    "lusearch": (525, 318),
    "pmd": (616, 376),
}


# benchmark: (jikes, v8) SHA-256 of the ``repr`` of every
# RuntimeRunResult field (see ``_run_digest``) at scale=0.002 with
# default seeds, recorded with the call-at-a-time replay loop that
# tests/test_runtime_differential.py keeps as its reference: the
# event-driven replay and that reference copy must both reproduce it.
GOLDEN_RUN_DIGESTS = {
    "antlr": (
        "0e1c7339e19f31e17cf36a3e934c64cd19906ff579b76ff65913cc325d065574",
        "454efbdbc10a4051a93507be81f4e9e6eddd5846367c21feabd17d57bde0cba6",
    ),
    "bloat": (
        "021be9765c96d9f770321a83683010cdb8799e4ecc206dd4fd609a890b888394",
        "c5b763b2dfe6d2ce05c7d9df3d45edab807509a595c015af928a631b2c8a7f8c",
    ),
    "eclipse": (
        "6ccfe0f80bd7f0996bad0f625d8a5f478ec47d2b8b2ff78b5b2a5e1bebb828a2",
        "acb0958fd693ebda6b4089be46d3a61a78691c715895d1f0b4332b5f00f28218",
    ),
    "fop": (
        "04adb13327dfcf8854c7a7f9bdbb4a64959050d51dd1db705d69c8d2613191b0",
        "1b26cd91ffa166bc28f1c06aff940ce90912c032a5a525fdfc297f128600bdab",
    ),
    "hsqldb": (
        "c18b7e263583f051e0b074c53da8c7a1a35f47f5134787e335e82bf0fd386457",
        "86af41e519119032cc8fccc58cbee2fcc451c3bdac47def56bfbb93d93ff6fb9",
    ),
    "jython": (
        "6a2138ef583d61d5f09dc41f236f6c38f213c12ba49d2266c5cf5fd2c2891acb",
        "b73ca071877b90d7393491628daed61f297bcdf5c8d04dce20cdd4b285c02c0b",
    ),
    "luindex": (
        "43cc3e5114ce663d82de01bd3a4a2aa1e9a2bfc33a492a9b453b039ede604d03",
        "1ee0d1822a040e746a37fbd72c8ab4a71ca31d5d3e5ad5cfdfc49b27e03743ce",
    ),
    "lusearch": (
        "d161dedad0219a06ad02c6886f10340485993ba369c6963afadc209c20d13919",
        "e6f8fa5f0f4f9d19f6ce2deda08c290a0099003543737fc39412c46bcc40af93",
    ),
    "pmd": (
        "83cc6ac1af5f27212bdde60c5fd67409fb679a53340c6c8ece7d2f80cb95295d",
        "a95b1956a30be57461ec27a8f1acf5f27400bd72d1cec0e6ff0386a209c3fd63",
    ),
}


def _run_digest(run) -> str:
    fields = (
        run.schedule,
        run.enqueue_times,
        run.makespan,
        run.total_bubble_time,
        run.total_exec_time,
        run.calls_at_level,
        run.samples_taken,
        run.fault_summary,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def test_golden_covers_the_whole_suite():
    assert set(GOLDEN) == set(dacapo.BENCHMARKS)
    assert set(GOLDEN_SAMPLES) == set(dacapo.BENCHMARKS)
    assert set(GOLDEN_RUN_DIGESTS) == set(dacapo.BENCHMARKS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_makespans(name):
    instance = dacapo.load(name, scale=SCALE)
    jikes, v8, iar = GOLDEN[name]
    assert run_jikes(instance).makespan == pytest.approx(jikes, rel=1e-9)
    assert run_v8(instance).makespan == pytest.approx(v8, rel=1e-9)
    assert simulate(instance, iar_schedule(instance)).makespan == pytest.approx(
        iar, rel=1e-9
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_ordering_iar_beats_both_runtimes(name):
    """On every preset, IAR lands between the lower bound and the
    reactive runtimes — the paper's headline ordering (Figure 5)."""
    instance = dacapo.load(name, scale=SCALE)
    jikes, v8, iar = GOLDEN[name]
    assert lower_bound(instance) <= iar
    assert iar < min(jikes, v8)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUN_DIGESTS))
def test_golden_runtime_result_digests(name):
    instance = dacapo.load(name, scale=SCALE)
    jikes, v8 = GOLDEN_RUN_DIGESTS[name]
    assert _run_digest(run_jikes(instance)) == jikes
    assert _run_digest(run_v8(instance)) == v8
    reference = PerCallRuntime(
        instance, JikesScheme(EstimatedModel(instance, seed=0))
    ).run()
    assert _run_digest(reference) == jikes
    assert _run_digest(PerCallRuntime(instance, V8Scheme()).run()) == v8


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_golden_sampler_tick_counts(name):
    instance = dacapo.load(name, scale=SCALE)
    jikes_samples, v8_samples = GOLDEN_SAMPLES[name]
    assert run_jikes(instance).samples_taken == jikes_samples
    assert run_v8(instance).samples_taken == v8_samples


def test_repeated_loads_are_identical():
    a = dacapo.load("antlr", scale=SCALE)
    b = dacapo.load("antlr", scale=SCALE)
    assert a.calls == b.calls
    assert a.profiles == b.profiles


# ---------------------------------------------------------------------------
# full-length pins (scale 0.1, ~240k calls): both engines must
# agree bitwise on a trace long enough to exercise every replay chunk
# path, and the absolute numbers are frozen.  Regenerate (after an
# intended change) with the docstring recipe, using scale=0.1.
# ---------------------------------------------------------------------------

FULL_SCALE = 0.1
# antlr @ scale=0.1, default seed: exact values, not approx.
FULL_GOLDEN_IAR = 341302.5746184745
FULL_GOLDEN_JIKES = 581049.4458593946
FULL_GOLDEN_V8 = 940845.9573871085
FULL_GOLDEN_SAMPLES = (229, 302)  # (jikes, v8)


@pytest.mark.parametrize("engine", ["reference", "vector"])
def test_full_length_iar_makespan_exact_per_engine(engine):
    instance = dacapo.load("antlr", scale=FULL_SCALE)
    schedule = iar_schedule(instance)
    result = simulate(instance, schedule, validate=False, engine=engine)
    assert result.makespan == FULL_GOLDEN_IAR


def test_full_length_runtime_pins():
    instance = dacapo.load("antlr", scale=FULL_SCALE)
    jikes = run_jikes(instance)
    v8 = run_v8(instance)
    assert jikes.makespan == FULL_GOLDEN_JIKES
    assert v8.makespan == FULL_GOLDEN_V8
    assert (jikes.samples_taken, v8.samples_taken) == FULL_GOLDEN_SAMPLES
