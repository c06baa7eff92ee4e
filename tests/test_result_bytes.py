"""Result bytes pinned: a mid-scale set of experiments hashes as recorded.

Reruns are byte-identical and do not depend on ``--workers``.  This
recomputes a small set of every experiment kind at 1 and 2 workers and
compares each CSV's sha256, taken below its stamp line, with the table
recorded for this package version and BLAS stamp
(:func:`conftest.blas_stamp`).  Another BLAS build or core may move
bits at roundoff with no change to the package: the table holds the
SkylakeX, Haswell and SandyBridge kernels of numpy 2.4.6's and scipy
1.17.1's OpenBLAS, and under a stamp with no entry the test skips,
naming both stamps and the files that differ.
Two layers come first and never skip.  The BER CSV's bytes must match:
its bit-error counts are integers and read the same under the
SkylakeX, Haswell and SandyBridge kernels.  Then each SIR sample,
waveform SIR and heatmap sum and maximum must lie within a stated
bound of the values recorded here, so a runner whose stamp has no
table entry still checks every result.  A change that moves result
bytes on purpose bumps the version and records a new entry and new
values; with none recorded for a version, the test fails and prints
this run's.
"""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import pytest

from afbm import __version__
from afbm.cli import PRESETS, run, write_report

MID = dict(L=64, K=8, N=128, P=(96, 128))
SPECS = (
    replace(PRESETS["waveform-sweep"], **MID),
    replace(PRESETS["channel-stats"], realizations=3, emit_heatmap=True,
            **MID),
    replace(PRESETS["ber-curves"], snr_db=(0.0, 10.0, 20.0), trials=10,
            **MID),
)
BER_CSV = "ber-35b7971a069f.csv"

# (version, BLAS stamp) -> {CSV name: sha256 below its stamp line}.
TABLE = {
    ("0.7.1", ("libscipy_openblas64_ 0.3.31.188.0 SkylakeX threads=1",
               "libscipy_openblas 0.3.30 SkylakeX threads=1")): {
        "ber-35b7971a069f.csv":
            "b1922fb45fdd84f51eb3eb2d68caff27cd94927b5068a6e9dd7fe7c238a9d9f6",
        "sir-channel-792450e9d50f-heatmap-hermite-P128-affine.csv":
            "9e10dc2d15ad8e0cd1ca310c9c9bdc98077c5fbf7346fb35fd0d630e8f6536a7",
        "sir-channel-792450e9d50f-heatmap-hermite-P128-filtered.csv":
            "e15381087cabe316301029dc5ff2d95d7a52bd7e9a6e7d8fe66f801954d8ef89",
        "sir-channel-792450e9d50f-heatmap-hermite-P96-affine.csv":
            "dc751fb22df18dc4f4b7496c9a1dc7956d84f70bbf6483d8e1f7ebd24c264a0e",
        "sir-channel-792450e9d50f-heatmap-hermite-P96-filtered.csv":
            "d8622852f45935a03b110113e24f08cbc8c06f7082b488734de42363ae57a2e9",
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-affine.csv":
            "8854c2a704c307add264e46248d6517e6072f773e1b89a7b3d0eb01c779f862b",
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-filtered.csv":
            "c8b319cc4856c79c047e22a26bc98fa978492569d7f2ce8422ebe0cc063e075b",
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-affine.csv":
            "c5c0be8daa1860b226e3f3a5e33bccbb3240ec0c16dab6d6fe32fec41995c046",
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-filtered.csv":
            "31f22edcb1b7890f280fd835d13a5c847de11c80cb48a905fab47f07ebf70d71",
        "sir-channel-792450e9d50f-samples.csv":
            "1a21fdf4071708f539421d16b226e5ebba0219cf538e638a90bee10a03c09102",
        "sir-channel-792450e9d50f.csv":
            "196839a28a0bf70e5cfa1e2cba66bb81a61646741dff6ef96b79fe1e4aa788dd",
        "sir-waveform-0e85536a7eb0.csv":
            "283c23d56b5c8c2f8790bc298bd5b8f8f72a6fef778b4736f18cf2e1364284ea",
    },
    ("0.7.1", ("libscipy_openblas64_ 0.3.31.188.0 Haswell threads=1",
               "libscipy_openblas 0.3.30 Haswell threads=1")): {
        "ber-35b7971a069f.csv":
            "b1922fb45fdd84f51eb3eb2d68caff27cd94927b5068a6e9dd7fe7c238a9d9f6",
        "sir-channel-792450e9d50f-heatmap-hermite-P128-affine.csv":
            "994d8fb1e6e755bf2217bc68cc36c0b3f338200371a93946679eaf0ba59db6b4",
        "sir-channel-792450e9d50f-heatmap-hermite-P128-filtered.csv":
            "1cae5b3c3794acc98d7153a793e37e99022f5ee6365c6af0a184556ab9f6123b",
        "sir-channel-792450e9d50f-heatmap-hermite-P96-affine.csv":
            "b50649e2336a26f3a9676a79c2c467ea0ca30ce8a090dcc12525775f57c9a03e",
        "sir-channel-792450e9d50f-heatmap-hermite-P96-filtered.csv":
            "6d814c525c3d0896e7cc633297a910cbacb6bfd84d844d4eb1ab97f4f570456c",
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-affine.csv":
            "246ccb8a3043410ef87ee6d66652843246063e7e48b8c52832039df3daad9654",
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-filtered.csv":
            "c3a0f4de84eccadf5e49093ec3f6041ee7ec44bd98f7155cfd214df9a3661fd6",
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-affine.csv":
            "fda5d486492e91641aeb2eb4c908a415a105501c8cf8f0c04c1b6a4af119398a",
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-filtered.csv":
            "0b39870fca3775c72e5744357a2f5391d530c2622fcc2caeb90a0b3ee8ea1429",
        "sir-channel-792450e9d50f-samples.csv":
            "d4c327b8349de80b7b871c5f772a52f544904fb624f2252cdfcfbf06400d8e95",
        "sir-channel-792450e9d50f.csv":
            "651854412b682a753ac973878dcddeac6d486afbc5ad6b204897c68d69889c45",
        "sir-waveform-0e85536a7eb0.csv":
            "1d2e23b6036fa041423d539a1ac9535a38cb18cc068d00f288f94a5823badfbf",
    },
    ("0.7.1", ("libscipy_openblas64_ 0.3.31.188.0 Sandybridge threads=1",
               "libscipy_openblas 0.3.30 Sandybridge threads=1")): {
        "ber-35b7971a069f.csv":
            "b1922fb45fdd84f51eb3eb2d68caff27cd94927b5068a6e9dd7fe7c238a9d9f6",
        "sir-channel-792450e9d50f-heatmap-hermite-P128-affine.csv":
            "fa4a5da8e3b5b0f68b740f9cb85ad2c4344a483ff11eb55c43854405539828f8",
        "sir-channel-792450e9d50f-heatmap-hermite-P128-filtered.csv":
            "5e4b6b029cfcfd20e56491b53fab93dcddbd1d5e3fee7e6ed57df8b57c4ca6e3",
        "sir-channel-792450e9d50f-heatmap-hermite-P96-affine.csv":
            "1b4fceeac2ddcc54834e791d0b9e51433fbe7ee7a4e376a3cc1334a1d0c46f5d",
        "sir-channel-792450e9d50f-heatmap-hermite-P96-filtered.csv":
            "8655a7a0b7ad5ae6266314ab6229a501866b56414b292581e93b4aa2d129abae",
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-affine.csv":
            "8b4e8eccea44149fefb89570b936cf08acce0c611520d0b60921b862d8289364",
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-filtered.csv":
            "f5b0172772dac7f48abf3cf991c17e9c7d010718a712ee40b2462804ff5c53d1",
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-affine.csv":
            "ca5e66b6097f37b5cd198dd17a8099a72273858060a858e8323dc54e736cae7c",
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-filtered.csv":
            "796c9434f50cf4781db06474e5074553a0c9d775031f63b5c75688aaf5f6d07f",
        "sir-channel-792450e9d50f-samples.csv":
            "eacd65afa4f85e6f0a9585d28d1d03c4f1908eb2fd0bd8828278f54afb19e70b",
        "sir-channel-792450e9d50f.csv":
            "0d7c1a07491eba00c87912403259b991e76961f2758f6a2f0c3a94337da9f0ba",
        "sir-waveform-0e85536a7eb0.csv":
            "283c23d56b5c8c2f8790bc298bd5b8f8f72a6fef778b4736f18cf2e1364284ea",
    },
}


# The value layer, checked under every stamp: per version, each SIR
# sample and waveform SIR in dB and each heatmap's (exact sum, maximum)
# of its power cells, recorded under the SkylakeX stamp.  Across the
# SkylakeX, Haswell and SandyBridge kernels these moved by at most
# 1.1e-13 dB (SIR samples), 7.1e-15 dB (waveform SIRs) and, per cell,
# 2.1e-15 of the map's maximum.  Each bound is that spread times MARGIN;
# a sum's is the per-cell bound times the cells it sums.
MARGIN = 10
SIR_DB, WAVEFORM_DB, HEATMAP_CELL = 1.1e-13, 7.1e-15, 2.1e-15
MAP_CELLS = 256 ** 2    # a payload of K L / 2 = 256 symbols
VALUES = {
    "0.7.1": {
        "sir-channel-792450e9d50f-heatmap-hermite-P128-affine.csv":
            (216.73905857939698, 0.9077660710182124),
        "sir-channel-792450e9d50f-heatmap-hermite-P128-filtered.csv":
            (255.15034160520818, 0.998207339114713),
        "sir-channel-792450e9d50f-heatmap-hermite-P96-affine.csv":
            (214.19542734736135, 0.9034608387614633),
        "sir-channel-792450e9d50f-heatmap-hermite-P96-filtered.csv":
            (255.08268456500642, 0.9979804488443195),
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-affine.csv":
            (214.26830395247737, 0.9121537625475057),
        "sir-channel-792450e9d50f-heatmap-phydyas-P128-filtered.csv":
            (255.10480826326952, 0.9981517734583717),
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-affine.csv":
            (212.17261950734652, 0.8974147850309048),
        "sir-channel-792450e9d50f-heatmap-phydyas-P96-filtered.csv":
            (254.97182426551888, 0.9979480021269319),
        "sir-channel-792450e9d50f-samples.csv": (
            14.317168283929377, 17.792478989219674, 14.055170966178709,
            46.17037964990433, 50.76819980021889, 45.82074075040913,
            14.684953624241182, 18.4532467885102, 15.766017853369263,
            45.88636931097824, 50.14978008628668, 48.04335006697815,
            14.532881898417116, 16.569079546111972, 13.866231926333674,
            45.83698792899011, 47.903373689310165, 44.77676297328668,
            14.520317460864415, 16.580730369328677, 16.4334501094435,
            45.559335259535416, 48.66597055717551, 49.99555032868844,
        ),
        "sir-waveform-0e85536a7eb0.csv": (
            22.421754785289323, 25.100321493759942, 15.516890215903851,
            15.731831347954369,
        ),
    },
}


def result_bodies(workers: int, out_dir: Path) -> dict[str, bytes]:
    """Each CSV the set writes at ``workers``, by name: its bytes after
    the stamp line."""
    bodies = {}
    for spec in SPECS:
        for path in write_report(spec, run(spec, workers=workers),
                                 str(out_dir / spec.kind)):
            if path.endswith(".csv"):
                data = Path(path).read_bytes()
                bodies[Path(path).name] = data[data.index(b"\n") + 1:]
    return bodies


def result_values(bodies: dict[str, bytes]) -> dict[str, tuple]:
    """The values the value layer compares: the SIR samples' and the
    waveform SIRs' last column in dB, and each heatmap's (sum, maximum)
    of its power column, summed exactly."""
    values = {}
    for name, body in bodies.items():
        rows = [line.split(",") for line in body.decode().splitlines()[1:]]
        if "-heatmap-" in name:
            power = [float(row[2]) for row in rows]
            values[name] = (math.fsum(power), max(power))
        elif name.endswith("-samples.csv"):
            values[name] = tuple(float(row[4]) for row in rows)
        elif name.startswith("sir-waveform-"):
            values[name] = tuple(float(row[5]) for row in rows)
    return values


def _outside_bounds(want: dict, got: dict) -> list[str]:
    """Each value of ``got`` farther from ``want`` than its bound."""
    outside = []
    for name, recorded in want.items():
        have = got.get(name)
        if "-heatmap-" in name:
            cell = MARGIN * HEATMAP_CELL * recorded[1]
            bounds = (cell * MAP_CELLS, cell)
        elif name.startswith("sir-waveform-"):
            bounds = (MARGIN * WAVEFORM_DB,) * len(recorded)
        else:
            bounds = (MARGIN * SIR_DB,) * len(recorded)
        if have is None or len(have) != len(recorded):
            outside.append(f"{name}: {have} against {recorded}")
            continue
        outside += [f"{name}[{i}]: {h!r} against {w!r}, bound {b:.2g}"
                    for i, (h, w, b) in enumerate(zip(have, recorded,
                                                      bounds))
                    if not (h == w or abs(h - w) <= b)]
    return outside


def _differing(want: dict, got: dict) -> list[str]:
    return sorted(name for name in want.keys() | got.keys()
                  if want.get(name) != got.get(name))


@pytest.mark.parametrize("workers", [1, 2])
def test_result_bytes_match_the_table(workers, blas_stamp, tmp_path):
    bodies = result_bodies(workers, tmp_path)
    got = {name: hashlib.sha256(body).hexdigest()
           for name, body in bodies.items()}
    recorded = [stamp for version, stamp in TABLE if version == __version__]
    assert recorded and __version__ in VALUES, (
        f"no result bytes recorded for afbm {__version__}; this run's, "
        f"under {(__version__, blas_stamp)}: {got}, values "
        f"{result_values(bodies)}")
    first = TABLE[__version__, recorded[0]]
    assert got.get(BER_CSV) == first[BER_CSV], \
        f"BER bytes moved at workers={workers} under BLAS {blas_stamp}"
    outside = _outside_bounds(VALUES[__version__], result_values(bodies))
    assert not outside, (f"values moved beyond their bounds at "
                         f"workers={workers} under BLAS {blas_stamp}: "
                         f"{outside}")
    want = TABLE.get((__version__, blas_stamp))
    if want is None:
        differ = _differing(first, got)
        pytest.skip(f"result bytes recorded under BLAS {recorded[0]}, "
                    f"this run has {blas_stamp}; files that differ: "
                    f"{differ or 'none'}")
    differ = _differing(want, got)
    assert not differ, f"result bytes moved at workers={workers}: {differ}"
