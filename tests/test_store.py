"""Canonical serialization and bank persistence."""
import hashlib
import math
import os

import numpy as np
import pytest

from aubase import store
from aubase.errors import DataFormatError


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_json_frozen_form():
    got = store.canonical_json({"b": [1.5, math.inf], "a": 2})
    assert got == '{\n "a": 2,\n "b": [\n  1.5,\n  "inf"\n ]\n}\n'


def test_canonical_json_sorts_and_is_deterministic():
    a = store.canonical_json({"x": 1, "y": [3, 2], "z": {"b": 1, "a": 2}})
    b = store.canonical_json({"z": {"a": 2, "b": 1}, "y": [3, 2], "x": 1})
    assert a == b


def test_canonical_json_handles_numpy_scalars_and_arrays():
    doc = {
        "arr": np.array([1.0, 2.5]),
        "i": np.int64(7),
        "f": np.float64(0.5),
        "flag": np.bool_(True),
    }
    got = store.canonical_json(doc)
    assert '"arr": [\n  1.0,\n  2.5\n ]' in got
    assert '"i": 7' in got
    assert '"f": 0.5' in got
    assert '"flag": true' in got


def test_canonical_json_infinities_round_trip():
    doc = {"hi": math.inf, "lo": -math.inf}
    text = store.canonical_json(doc)
    assert '"hi": "inf"' in text and '"lo": "-inf"' in text
    assert float("inf") == math.inf
    assert float("-inf") == -math.inf
    assert float(1.25) == 1.25
    assert float("2.5") == 2.5


def test_canonical_json_rejects_nan():
    with pytest.raises(DataFormatError):
        store.canonical_json({"x": float("nan")})
    with pytest.raises(DataFormatError):
        store.canonical_json({"x": np.array([1.0, np.nan])})


def test_write_json_refusal_creates_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(DataFormatError):
        store.write_json(str(path), {"x": [1.0, float("nan")]})
    assert not path.exists()


def test_write_read_json_round_trip(tmp_path):
    path = str(tmp_path / "doc.json")
    store.write_json(path, {"k": [1, 2, 3], "v": "s"})
    assert store.read_json(path) == {"k": [1, 2, 3], "v": "s"}
    with pytest.raises(DataFormatError):
        store.read_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError):
        store.read_json(str(bad))


def test_sha256_file_matches_direct_hash(tmp_path):
    payload = b"aubase store check\n"
    path = tmp_path / "blob.bin"
    path.write_bytes(payload)
    got = store.sha256_file(str(path))
    assert got == hashlib.sha256(payload).hexdigest()
    assert got == "4759c6dc00140d296472129fcfcd15539f7c8fb9f803c5d5812895a26e8d3211"


# ---------------------------------------------------------------------------
# bank persistence
# ---------------------------------------------------------------------------


def test_save_load_bank_round_trip(tmp_path, small_bank):
    out = str(tmp_path / "bank")
    index_path = store.save_bank(small_bank, out)
    loaded = store.load_bank(out)
    assert store.bank_hash(loaded) == store.bank_hash(small_bank)
    assert loaded.step_ids == small_bank.step_ids
    assert loaded.train_keys == small_bank.train_keys
    assert loaded.val_keys == small_bank.val_keys
    assert len(loaded.validation) == len(small_bank.validation)
    for s in small_bank.step_ids:
        a, b = small_bank.steps[s], loaded.steps[s]
        assert a.level == b.level
        assert a.sensor_ids == b.sensor_ids
        assert a.feature_width == b.feature_width
        assert np.array_equal(a.map.weights, b.map.weights)
        assert a.map.grid == b.map.grid
        assert np.array_equal(a.partition.unit_label, b.partition.unit_label)
        assert a.partition.modes == b.partition.modes
        assert sorted(a.clusters) == sorted(b.clusters)
        for cid, cm in a.clusters.items():
            other = b.clusters[cid]
            assert other.q95 == cm.q95
            assert other.spe_threshold == cm.spe_threshold
            assert other.n_members == cm.n_members
            if cm.model is None:
                assert other.model is None
            else:
                assert np.array_equal(other.model.loadings, cm.model.loadings)
                assert np.array_equal(other.model.eigvals, cm.model.eigvals)
                assert other.model.r == cm.model.r
    index = store.read_json(index_path)
    assert index["model_hash"] == store.bank_hash(small_bank)


def test_save_load_save_bank_is_byte_identical(tmp_path, small_bank):
    # a field the codec dropped, or read back with another type, changes bytes
    first, second = tmp_path / "b1", tmp_path / "b2"
    store.save_bank(small_bank, str(first))
    store.save_bank(store.load_bank(str(first)), str(second))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    assert len(names) == len(small_bank.step_ids) + 2
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_load_bank_rejects_unknown_schema(tmp_path, small_bank):
    out = str(tmp_path / "bank")
    index_path = store.save_bank(small_bank, out)
    doc = store.read_json(index_path)
    doc["schema_version"] = "bogus"
    store.write_json(index_path, doc)
    with pytest.raises(DataFormatError):
        store.load_bank(out)


def test_load_bank_refuses_version_1_by_version(tmp_path, small_bank):
    # version 1 banks were hashed without their validation vectors; they are
    # refused for their version, not reported as changed after training
    out = str(tmp_path / "bank")
    index_path = store.save_bank(small_bank, out)
    doc = store.read_json(index_path)
    doc["schema_version"] = 1
    store.write_json(index_path, doc)
    with pytest.raises(DataFormatError, match="schema version 1 not supported"):
        store.load_bank(out)


def test_load_bank_rejects_edited_model(tmp_path, small_bank):
    out = str(tmp_path / "bank")
    store.save_bank(small_bank, out)
    path = os.path.join(out, f"step-{small_bank.step_ids[0]}.json")
    doc = store.read_json(path)
    doc["som"]["weights"][0][0] += 0.5
    store.write_json(path, doc)
    with pytest.raises(DataFormatError, match="model_hash"):
        store.load_bank(out)


@pytest.mark.parametrize(
    "edit",
    [
        lambda step, index: step.pop("theta"),
        lambda step, index: step["clusters"]["0"].pop("q95"),
        lambda step, index: step.__setitem__("clusters", []),
        lambda step, index: step["som"].__setitem__("weights", "bogus"),
        lambda step, index: index.pop("step_files"),
        lambda step, index: index.__setitem__("step_ids", [None]),
    ],
    ids=["no-theta", "no-q95", "clusters-list", "weights-string", "no-step-files",
         "null-step-id"],
)
def test_load_bank_maps_malformed_documents_to_data_format_error(tmp_path, small_bank, edit):
    out = str(tmp_path / "bank")
    index_path = store.save_bank(small_bank, out)
    step_path = os.path.join(out, f"step-{small_bank.step_ids[0]}.json")
    step, index = store.read_json(step_path), store.read_json(index_path)
    edit(step, index)
    store.write_json(step_path, step)
    store.write_json(index_path, index)
    with pytest.raises(DataFormatError):
        store.load_bank(out)


def test_bank_hash_sensitive_to_model_changes(tmp_path, small_bank):
    import copy

    base = store.bank_hash(small_bank)
    mutated = copy.deepcopy(small_bank)
    first_step = mutated.steps[mutated.step_ids[0]]
    cid = sorted(first_step.clusters)[0]
    first_step.clusters[cid].q95 *= 1.5
    assert store.bank_hash(mutated) != base
    # the held-out vectors feed the second-level map, so they count too
    mutated2 = copy.deepcopy(small_bank)
    mutated2.validation[0].spe[0] *= 100.0
    assert store.bank_hash(mutated2) != base
    mutated3 = copy.deepcopy(small_bank)
    mutated3.validation = mutated3.validation[:-1]
    assert store.bank_hash(mutated3) != base


def test_save_bank_writes_stable_bytes(tmp_path, small_bank):
    out1 = str(tmp_path / "b1")
    out2 = str(tmp_path / "b2")
    store.save_bank(small_bank, out1)
    store.save_bank(small_bank, out2)
    import os

    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as fa, open(
            os.path.join(out2, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name
