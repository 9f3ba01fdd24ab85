"""SHA-256 pins of the bytes an instance serializes to.

The importer bundles under ``tests/fixtures`` are compared against
committed files, but nothing else pins what the writers emit from a
generated instance.  These digests do, so a change to how an instance
stores its calls cannot move a written byte:

* :func:`repro.workloads.traces.to_json` of a DaCapo preset and of a
  synthetic spec with more than 256 functions (two-byte call ids), and
  of the instances :func:`~repro.workloads.traces.from_json` reads back;
* :func:`repro.store.fingerprint.fingerprint_instance` of two presets;
* every file :func:`repro.instances.write_bundle` writes for one preset,
  and again after :func:`repro.instances.read_bundle` reads it back.

If a change *intends* to move these bytes, print the new tables with
``PYTHONPATH=src:tests python tests/test_serialization_pins.py``.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.instances import InstanceBundle, read_bundle, write_bundle
from repro.store.fingerprint import fingerprint_instance
from repro.workloads import dacapo, traces
from repro.workloads.synthetic import WorkloadSpec, generate

from test_golden_traces import SCALE

SYNTHETIC = WorkloadSpec(name="pin-wide", num_functions=300, num_calls=6000)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _instances():
    return {
        "antlr": dacapo.load("antlr", scale=SCALE),
        "pin-wide": generate(SYNTHETIC, seed=3),
    }


def bundle_digests(directory: pathlib.Path):
    return {
        path.name: _sha(path.read_bytes())
        for path in sorted(directory.iterdir())
    }


TO_JSON_DIGESTS = {
    "antlr": "25e494db0d8252ee47be9a37e204b20330f6aab10e5f30709bccbce5d5c2a106",
    "pin-wide": "34da9cc4a4377f07dedcfb5e3eaa3be0440bed88e5c74e790ea7b668995db0ae",
}
FINGERPRINTS = {
    "antlr": "122d0a94d39ad154ef11e141b1a95399373cf95495517384552d392eb668235e",
    "jython": "dc6e4590ce496805c5c1f43a26c3009bf46134940bfaadcf12f794241c7a8045",
}
BUNDLE_DIGESTS = {
    "calls.csv": "699e480d68d7214d8da9dbe992fde88624d93ff5c3c6b90facafc0a649e39123",
    "costs.csv": "5cbd6e3a390296a5a35f229bef84e2c29b2ae4c531cf935afe360fa3171e85c8",
    "machine.json": "b860987d081cbf33c93032e3eff57ded686da32d800de6100a1547cbb148185c",
    "manifest.json": "e536e8584b597ccbdb21d846d2be7251acfaefbeff36f65a7f5cd0a92effd5f0",
}


@pytest.fixture(scope="module")
def instances():
    return _instances()


@pytest.mark.parametrize("name", sorted(TO_JSON_DIGESTS))
def test_trace_json_bytes(instances, name):
    text = traces.to_json(instances[name])
    assert _sha(text.encode()) == TO_JSON_DIGESTS[name]
    assert traces.to_json(traces.from_json(text)) == text


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_store_fingerprint(name):
    instance = dacapo.load(name, scale=SCALE)
    assert fingerprint_instance(instance) == FINGERPRINTS[name]


def test_bundle_bytes(instances, tmp_path):
    bundle = InstanceBundle(instance=instances["antlr"], source="synthetic")
    written = write_bundle(bundle, tmp_path / "written")
    assert bundle_digests(written) == BUNDLE_DIGESTS
    again = write_bundle(read_bundle(written), tmp_path / "again")
    assert bundle_digests(again) == BUNDLE_DIGESTS


if __name__ == "__main__":
    import tempfile

    built = _instances()
    print("TO_JSON_DIGESTS = {")
    for name in sorted(TO_JSON_DIGESTS):
        print(f"    {name!r}: {_sha(traces.to_json(built[name]).encode())!r},")
    print("}\nFINGERPRINTS = {")
    for name in sorted(FINGERPRINTS):
        digest = fingerprint_instance(dacapo.load(name, scale=SCALE))
        print(f"    {name!r}: {digest!r},")
    print("}\nBUNDLE_DIGESTS = {")
    with tempfile.TemporaryDirectory() as tmp:
        bundle = InstanceBundle(instance=built["antlr"], source="synthetic")
        for fname, digest in bundle_digests(write_bundle(bundle, tmp)).items():
            print(f"    {fname!r}: {digest!r},")
    print("}")
