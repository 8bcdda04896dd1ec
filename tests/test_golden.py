"""Golden bytes: the canonical stdout of the report commands on fixed inputs.

The estimator digests were taken from the scalar implementation of the
shell, regularity, partition and weight-filter layers; the array
implementation must print exactly the same bytes.  The digests of the
other reports (uniformity, energy, partition, interval-family, theorem and
construction reports, and the CSV mode) were taken while every report
class still wrote its own ``to_dict``; the serializer, which now derives
a report's document from its dataclass fields, must print the same bytes.
The ``type-selection-empty`` digest was taken while the interior density
and the type estimators still ran separate copies of the downward scan,
and the ``theorem-hybrid`` digest while ``hybrid_check`` still ran its
own overlap check over ``Interval`` objects.  The ``construct-auxiliary-fill``,
``construct-alternating``, ``theorem-beurling-gap-sequence``,
``theorem-krein-lm-zero`` and ``theorem-debranges`` digests were taken while
the constructions and the classical checkers still ran per-element loops.
The ``regularity-families`` and ``theorem-beurling-gap-union`` digests were
taken while the dyadic blocks were still built one ``Interval`` at a time.
A changed digest means a changed report, not a formatting detail.
"""

import hashlib

import numpy as np
import pytest

from typelab import catalog
from typelab.cli import main
from typelab.constructions import (
    alternating_partition,
    arithmetic,
    measure_from_weights,
    perturb_exponential,
)
from typelab.core import WeightTable
from typelab.partitions import find_short_partition
from typelab.serialize import canonical_json

T = 2000.0
GRID = ["--grid", "0.1:2.0:0.1"]

GOLDEN = {
    "type": (["type", "--input", "koosis"],
             "7b0e8accea16774e4a436fa52db8c8736a383c63cebf12a72c3e73d4d06ad89e"),
    "type-selection-empty": (["type", "--input", "super-exp", "--grid", "0.05:1.3:0.05"],
                             "19eb4018e77cca55881c2aa381f57e753ccaa8003efa36a3783517f15d0766a6"),
    "type-separated": (["type", "--input", "koosis", "--separated"],
                       "89952c54d0a5730530e7e07bdc2f5a99429314b307ce046a63b1354ac8c968e9"),
    "regularity": (["regularity", "--input", "pert", "--a", "1"],
                   "b33164fd6523ab870ecd8e5cf3c4c705073b9d7d101d730a04ffc8cb3a7b85a0"),
    "regularity-families": (["regularity", "--input", "pert", "--a", "0.7", "--scan", "families"],
                            "2b62bba86048379c935427f5da25b4a5e2b69ae5ce636079329b980577b125b3"),
    "density-interior-arith": (["density", "--input", "arith", "--kind", "interior"] + GRID,
                               "c7c7ef3197eae6bae64abf15db44a119fc21d5966e72d14dfad8ba70f62bb606"),
    "density-interior-pert": (["density", "--input", "pert", "--kind", "interior"] + GRID,
                              "88c1059430e6ee4a8bef4bc4a0c48f97f7b5ef0a579abb2d2815100ae9f0b49a"),
    "density-exterior-pert": (["density", "--input", "pert", "--kind", "exterior"] + GRID,
                              "9d9f2ec1b0694977ae8d6345ee75f6c8f435cb0f55291431ae0dfa7743e7ea53"),
    "theorem-levinson": (["theorem", "levinson", "--input", "koosis"],
                         "786748d63f25ada176ce6ef87164011990099e6bd4449e9b1ec53a6620a91fe0"),
    "uniform": (["uniform", "--input", "pert", "--d", "1.0"],
                "df12aa915bad36e79689a3ecfe132b1fa9a8f6f1d429e5f9a9a00f59953c8488"),
    "uniform-partition": (["uniform", "--input", "pert", "--d", "1.0",
                           "--partition", "short-partition"],
                          "6596a29b53cadb78bda3fd45ab1efff791fa34d6d43716e9ca9c31c06a3226e2"),
    "energy-interval": (["energy", "--input", "pert", "--interval", "10,40"],
                        "64d8a35a4735308c3e2a72a75246002074b341c5f3e0e979bc2d91da18e7a1e7"),
    "partition": (["partition", "--input", "pert", "--d", "1.0"],
                  "39d684a9fa4eddd4a8062848dea81229116c7be33bfe76034852ffbd48a1100d"),
    "classify": (["classify", "--intervals", "intervals"],
                 "825e562cb479746b4f5b6a9bbd814bc34e43bf47c3546e54a32fbd4b3a0c6506"),
    "short2i": (["short2i", "--intervals", "intervals", "--C", "8"],
                "f5b53f7c438a0e9d7b4f2367fe502064465b9ba38c87dbe3f5fd1ad2751b4785"),
    "theorem-beurling-gap": (["theorem", "beurling-gap", "--intervals", "intervals"],
                             "d03768392f57fa25fea647ba5d8b3fd6da12167582c683c3ab44c69da7315707"),
    "theorem-beurling-gap-union": (["theorem", "beurling-gap", "--intervals", "intervals-union"],
                                   "769836d4a07d15891c0279ae73c21075f47af234caa8eb7cc8aef957bf0f7f76"),
    "theorem-hybrid": (["theorem", "hybrid", "--input", "koosis", "--intervals", "intervals"],
                       "c69ed2657f65b2f14859b6e0e2eb5f0561471117649031e823e8260188b72668"),
    "theorem-krein-lm": (["theorem", "krein-lm", "--weight", "samples"],
                         "1ee9eb18d09177dc3f639d08d5606fcd1e7f5716fddad0935f21b21becf6689a"),
    "theorem-benedicks": (["theorem", "benedicks", "--partition", "alternating"],
                          "0f625ffffbd045742721dfe3f455f8f722791e554028f68d9efef3a91f75fc32"),
    "theorem-suffgen": (["theorem", "suffgen", "--input", "koosis", "--sequence", "arith",
                         "--d", "1.0"],
                        "c9d4bd3c7b6550486d49c32f8a3b61ad77ccc0d384b1c28a5b8ebc969b7b9c66"),
    "construct-benedicks": (["construct", "benedicks", "--param", "T=400"],
                            "249254426250d5340c1f38122c50538dedcc9c13820f18f7a2df212420620fe7"),
    "construct-auxiliary-fill": (["construct", "auxiliary", "--param", "d=0.013",
                                  "--param", "T=3000", "--param", "L=21"],
                                 "f8a50c740311e59444095885d187301984c8f5eeb55727ca2deb335d1cfefe9c"),
    "construct-alternating": (["construct", "alternating-partition", "--param", "T=77.7",
                               "--param", "even=0.3", "--param", "odd=1.7"],
                              "311e942149ef58656bbdded9b8f6e6bcc40be0a6959c60bcdb0224ed10d4c852"),
    "theorem-beurling-gap-sequence": (["theorem", "beurling-gap", "--input", "pert"],
                                      "e60d3467d98492475448d40299606eb402492a99eea19be86624a9555ee3f4fb"),
    "theorem-krein-lm-zero": (["theorem", "krein-lm", "--weight", "samples-zero"],
                              "c1c458526642ffdbb2dba5a159fc75c336d52b6fd8b2c888541b240ee6f346a5"),
    "theorem-debranges": (["theorem", "debranges", "--input", "koosis",
                           "--weight", "mu-weight"],
                          "f6aca943bb739df1ff0e17967e8bcd0226cb76d0e3415db164c0c675bd9b2972"),
    "type-csv": (["type", "--input", "koosis", "--format", "csv"],
                 "1fc203b55be891bf36809c414c08c28b823dbd156593178e77a47a87711c8e11"),
    "uniform-csv": (["uniform", "--input", "pert", "--d", "1.0", "--format", "csv"],
                    "1216807d812b47c76a731a321457eb3309b26db17e9144920ecb0c0b04e76347"),
}


def _union_intervals() -> list[list[float]]:
    """Unit intervals at ``+-k^2`` with duplicate, nested and touching members."""
    def at(ks, lo, hi):
        return [[s * k * k + lo, s * k * k + hi] for k in ks for s in (-1, 1)]
    return (sorted(at(range(1, 41), 0.0, 1.0)) + at(range(2, 41, 4), 0.0, 1.0)
            + at(range(3, 41, 3), 0.25, 0.5) + at(range(5, 41, 5), 1.0, 3.0))


def _samples_table() -> WeightTable:
    """Density samples ``exp(-sqrt|x + 10|)`` on 200 pieces of ``[-T, T]``."""
    bks = np.linspace(-T, T, 201)
    return WeightTable(bks, np.exp(-np.sqrt(np.abs(bks[:-1] + 10.0))), "samples")


def _samples_zero_table() -> WeightTable:
    """:func:`_samples_table` with the pieces left of -1500 set to zero."""
    table = _samples_table()
    values = np.where(table.breakpoints[:-1] < -1500.0, 0.0, table.values)
    return WeightTable(table.breakpoints, values, "samples")


def _mu_weight() -> WeightTable:
    """The weight ``exp(sqrt|x|)`` on 200 pieces of ``[-T, T]``."""
    bks = np.linspace(-T, T, 201)
    return WeightTable(bks, np.exp(np.sqrt(np.abs(0.5 * (bks[:-1] + bks[1:])))))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    arith = arithmetic(1.0, T)
    docs = {"koosis": catalog.koosis_measure(T), "arith": arith,
            "pert": perturb_exponential(arithmetic(1.0, T), 1.0, 3),
            "short-partition": find_short_partition(arith, 1.0),
            # the weight filter keeps |x| <= 7, whose partition intervals are too
            # short to select a point at d <= 0.4: the "selection empty" note
            "super-exp": measure_from_weights(arithmetic(1.0, 26.0), "super-exponential"),
            "alternating": alternating_partition(1.0, 2.0, 400.0),
            "intervals": {"intervals": sorted([s * k * k, s * k * k + 1.0]
                                              for k in range(1, 41) for s in (-1, 1))},
            "intervals-union": {"intervals": _union_intervals()},
            "samples": _samples_table(), "samples-zero": _samples_zero_table(),
            "mu-weight": _mu_weight()}
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
