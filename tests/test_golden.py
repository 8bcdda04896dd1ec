"""Golden bytes: the canonical stdout of the estimator commands on fixed inputs.

The sha256 digests were taken from the scalar implementation of the shell,
regularity, partition and weight-filter layers; the array implementation
must print exactly the same bytes.  A changed digest means a changed
report, not a formatting detail.
"""

import hashlib

import pytest

from typelab import catalog
from typelab.cli import main
from typelab.constructions import arithmetic, perturb_exponential
from typelab.serialize import canonical_json

T = 2000.0
GRID = ["--grid", "0.1:2.0:0.1"]

GOLDEN = {
    "type": (["type", "--input", "koosis"],
             "7b0e8accea16774e4a436fa52db8c8736a383c63cebf12a72c3e73d4d06ad89e"),
    "type-separated": (["type", "--input", "koosis", "--separated"],
                       "89952c54d0a5730530e7e07bdc2f5a99429314b307ce046a63b1354ac8c968e9"),
    "regularity": (["regularity", "--input", "pert", "--a", "1"],
                   "b33164fd6523ab870ecd8e5cf3c4c705073b9d7d101d730a04ffc8cb3a7b85a0"),
    "density-interior-arith": (["density", "--input", "arith", "--kind", "interior"] + GRID,
                               "c7c7ef3197eae6bae64abf15db44a119fc21d5966e72d14dfad8ba70f62bb606"),
    "density-interior-pert": (["density", "--input", "pert", "--kind", "interior"] + GRID,
                              "88c1059430e6ee4a8bef4bc4a0c48f97f7b5ef0a579abb2d2815100ae9f0b49a"),
    "density-exterior-pert": (["density", "--input", "pert", "--kind", "exterior"] + GRID,
                              "9d9f2ec1b0694977ae8d6345ee75f6c8f435cb0f55291431ae0dfa7743e7ea53"),
    "theorem-levinson": (["theorem", "levinson", "--input", "koosis"],
                         "786748d63f25ada176ce6ef87164011990099e6bd4449e9b1ec53a6620a91fe0"),
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    docs = {"koosis": catalog.koosis_measure(T), "arith": arithmetic(1.0, T),
            "pert": perturb_exponential(arithmetic(1.0, T), 1.0, 3)}
    paths = {}
    for name, obj in docs.items():
        path = root / f"{name}.json"
        path.write_text(canonical_json(obj) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_unchanged(name, documents, capsys):
    argv, digest = GOLDEN[name]
    assert main([documents.get(a, a) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
