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
the constructions and the classical checkers still ran per-element loops,
and the ``theorem-borichev-sodin``, ``theorem-borichev-sodin-fail``,
``theorem-duffin-schaeffer`` and ``theorem-duffin-schaeffer-fail`` digests
while those two checkers and ``hybrid_check`` still measured one interval
at a time.
The ``regularity-families`` and ``theorem-beurling-gap-union`` digests were
taken while the dyadic blocks were still built one ``Interval`` at a time.
The ``uniform-pert-small`` digest was taken while the downward scan still
computed the Coulomb energies of every candidate; it prints the deficits
of a greedy partition over two shells, so it pins ``check_d_uniform``
itself, which always runs the energy leg.  The scan runs it only where the
density leg passed and the shortness leg is ``convergent``: elsewhere the
candidate fails whatever its energies, and its note reads
``energy not-run`` (``test_scan_goldens_reach_the_shortcut``).  The
``density-interior-pert``, ``density-interior-pert-small``,
``type-pert-small`` and ``type-selection-empty`` digests were re-recorded
for that note, the only bytes that moved; the other scan goldens have no
such candidate, and ``type-separated`` skips the energy leg altogether.
The five ``type`` digests (``type``, ``type-csv``, ``type-pert-small``,
``type-selection-empty`` and ``type-separated``) were re-recorded when the
weight penalty became ``max(0, -log(m / |mu|)) / (1 + x^2)``, by position
rather than by index, which moves the certificate's weight sums but not a
type value, and when a failing scan candidate's note began to name the leg
that failed, as in ``density``, instead of reading "uniformity fail".
The ``energy``, ``rescale``, ``construct-arithmetic``, ``construct-perturbed``
and ``construct-weighted-measure`` digests were taken while those commands
still had hand-written handlers and option declarations.
A changed digest means a changed report, not a formatting detail.
"""

import hashlib
import json

import numpy as np
import pytest

from typelab import catalog, density, uniformity
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
             "78be8ab89a2e9e9375196d2dc8e32d93a53870c151d96aac448b07138d6d4a47"),
    "type-selection-empty": (["type", "--input", "super-exp", "--grid", "0.05:1.3:0.05"],
                             "fa1906583708b3df4adebac4aabe8e3e73ae0ccc03b069ea7a5e16f75228f8b0"),
    "type-separated": (["type", "--input", "koosis", "--separated"],
                       "5e4700bc3b68261a85c2a8a60e3f07d794e63a27de8e484b832dbbfa47e4bc16"),
    "regularity": (["regularity", "--input", "pert", "--a", "1"],
                   "b33164fd6523ab870ecd8e5cf3c4c705073b9d7d101d730a04ffc8cb3a7b85a0"),
    "regularity-families": (["regularity", "--input", "pert", "--a", "0.7", "--scan", "families"],
                            "2b62bba86048379c935427f5da25b4a5e2b69ae5ce636079329b980577b125b3"),
    "density-interior-arith": (["density", "--input", "arith", "--kind", "interior"] + GRID,
                               "c7c7ef3197eae6bae64abf15db44a119fc21d5966e72d14dfad8ba70f62bb606"),
    "density-interior-pert": (["density", "--input", "pert", "--kind", "interior"] + GRID,
                              "fa620714745fb7c7de08727294fb9cfaaf896b4647779aa117748c2981db3ebc"),
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
    "theorem-borichev-sodin": (["theorem", "borichev-sodin", "--input", "koosis",
                                "--other", "koosis"],
                               "9ca21fae28ff18e3525313ebda89094db6cae2d726b6f0a27df3588c46b970a6"),
    "theorem-borichev-sodin-fail": (["theorem", "borichev-sodin", "--input", "koosis",
                                     "--other", "koosis", "--C", "0.01"],
                                    "b3d933521cc24af8ef8a6f5a6ed4f21a64461d799ddb8728512f171b4b56a41a"),
    "theorem-duffin-schaeffer": (["theorem", "duffin-schaeffer", "--input", "koosis",
                                  "--L", "1", "--c", "1e-12"],
                                 "9f010573113d538bc830d77a6bd89f1379ac74cf80d4233ce15786c77706ac1d"),
    "theorem-duffin-schaeffer-fail": (["theorem", "duffin-schaeffer", "--input", "koosis"],
                                      "d9cf44e06547000539f2b4b963699ee6e99adde0d64702298141aa08f27767b7"),
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
                 "cd9882bd136746d54de0d18f5f6561b60a16a1fda3bf45db07a7be0cf8b2ccbb"),
    "uniform-csv": (["uniform", "--input", "pert", "--d", "1.0", "--format", "csv"],
                    "1216807d812b47c76a731a321457eb3309b26db17e9144920ecb0c0b04e76347"),
    "density-interior-pert-small": (["density", "--input", "pert-small", "--kind", "interior"]
                                    + GRID,
                                    "98ac7088c5abb2712ea1925f35f82e38b62d36e77a2b89e7c4dd8d2478442cb6"),
    "type-pert-small": (["type", "--input", "pert-small-poly"],
                        "ad4dbb5e6f02a02ba65df51c197e4676d976c567b8bbca4b6203d78682fbcc26"),
    "uniform-pert-small": (["uniform", "--input", "pert-small", "--d", "1.05"],
                           "b6bcc5fa95bf29fd3c678ab7a08a845d8c8e90e299d19957d6fa481f533161a4"),
    "energy": (["energy", "--input", "pert"],
               "4f7080392d838a70e175c8e06e1245e9590437c31cbff79199c8e2806506c555"),
    "rescale": (["rescale", "--input", "koosis", "--alpha", "2"],
                "591731b9664d30b37cc56cff509a1da2fdbedae188aa1b90402605d3bf77101b"),
    "construct-arithmetic": (["construct", "arithmetic", "--param", "d=0.5", "--param", "T=50"],
                             "8fed858ed53179b6392fa7f05ac6d744227808ba7926cc207eb539488975e3f6"),
    "construct-perturbed": (["construct", "perturbed", "--param", "T=50", "--param", "c=0.5",
                             "--param", "seed=7"],
                            "7ac46b1f1b53b4aea3cca7207f088bd741ca480d3492dad33f48847f314905f7"),
    "construct-weighted-measure": (["construct", "weighted-measure", "--param", "T=50",
                                    "--param", "weights=polynomial", "--param", "beta=2"],
                                   "a9e16059de31b5b0733ded4b676b4ca8afea027736619f76bd240107ea14ae4a"),
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
    pert_small = perturb_exponential(arithmetic(1.0, 1000.0), 1.0, 1)
    docs = {"koosis": catalog.koosis_measure(T), "arith": arith,
            "pert": perturb_exponential(arithmetic(1.0, T), 1.0, 3),
            "short-partition": find_short_partition(arith, 1.0),
            "pert-small": pert_small,
            "pert-small-poly": measure_from_weights(pert_small, "polynomial", {"beta": 2.0}),
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


# the scan goldens: True where some candidate's density or shortness leg
# failed, so that the scan decides it without its Coulomb pass
SCAN_SHORTCUT = {"density-interior-pert-small": True, "type-pert-small": True,
                 "density-interior-arith": False, "density-interior-pert": True,
                 "type": False, "type-csv": False, "type-selection-empty": True,
                 "type-separated": False}


@pytest.mark.parametrize("name", sorted(SCAN_SHORTCUT))
def test_scan_goldens_reach_the_shortcut(name, documents, capsys, monkeypatch):
    skipped = []

    def counted(*args, **kwargs):
        report = uniformity._evaluate(*args, **kwargs)
        skipped.append(report.energy_verdict is None and not report.energy_skipped)
        return report

    monkeypatch.setattr(density, "_evaluate", counted)
    assert main([documents.get(a, a) for a in GOLDEN[name][0]]) == 0
    capsys.readouterr()
    assert any(skipped) == SCAN_SHORTCUT[name]


def test_separated_scan_notes_name_no_energy_leg(documents, capsys):
    """A ``--separated`` scan skips the energy leg, so no failing note names it."""
    assert main(["type", "--input", documents["pert-small-poly"], "--separated"]) == 0
    notes = [note for _, passed, note in json.loads(capsys.readouterr().out)["diagnostics"]
             if not passed and not note.startswith("partition:")]
    assert notes and all("partition" in note and "energy" not in note for note in notes)
