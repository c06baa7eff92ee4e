import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from afbm import __version__, cli
from afbm.cli import (PRESETS, ExperimentReport, main, parse_spec, run,
                      spec_fingerprint, validate, write_report)

SMALL_SIR = """
kind: sir-channel
seed: 11
output: out
modulation: {L: 32, K: 4, N: 64, P: [48, 64], filter: [hermite]}
channel: {paths: 3, delay_max: 12, doppler_max: 1.0}
domains: [affine, filtered]
realizations: 3
sigma2: {affine: 3.0e-3, filtered: 3.0e-4}
averaging: db
"""

SMALL_BER = """
kind: ber
seed: 5
output: out
modulation: {L: 32, K: 4, N: 64, P: [48], filter: [hermite]}
channel: {paths: 3, delay_max: 12, doppler_max: 1.0}
domains: [affine, filtered]
snr_db: [6, 12]
trials: 6
min_bit_errors: 10
"""


# Every key away from its default, and the canonical text and
# fingerprint it has always had: a key dropped, renamed or moved to
# another section changes one or the other.
EVERY_KEY = """
kind: ber
seed: 7
output: elsewhere
modulation: {L: 32, K: 4, N: 64, P: [48, 64], filter: [phydyas, hermite], xi: 1}
channel: {paths: 2, delay_max: 5, doppler_max: 0.5}
domains: [filtered]
realizations: 12
sigma2: {affine: 0.01, filtered: 1.0e-3}
averaging: db
snr_db: [3.5, 9]
trials: 17
min_bit_errors: 9
qam_order: 16
emit_heatmap: true
"""

EVERY_KEY_CANONICAL = """\
averaging: db
channel:
  delay_max: 5
  doppler_max: 0.5
  paths: 2
domains:
- filtered
emit_heatmap: true
kind: ber
min_bit_errors: 9
modulation:
  K: 4
  L: 32
  N: 64
  P:
  - 48
  - 64
  filter:
  - phydyas
  - hermite
  xi: 1
output: elsewhere
qam_order: 16
realizations: 12
seed: 7
sigma2:
  affine: 0.01
  filtered: 0.001
snr_db:
- 3.5
- 9.0
trials: 17
"""


def canonical_yaml(spec):
    """A spec's config keys as YAML, sorted: the text parse_spec reads
    back into the same spec."""
    return yaml.safe_dump(cli._spec_to_dict(spec), sort_keys=True,
                          default_flow_style=False)


class TestSpecSerialization:

    def test_every_key_is_pinned(self):
        spec = parse_spec(EVERY_KEY)
        defaults = cli.ExperimentSpec(kind="")
        assert [f.name for f in fields(spec)
                if getattr(spec, f.name) == getattr(defaults, f.name)] == []
        assert canonical_yaml(spec) == EVERY_KEY_CANONICAL
        assert spec_fingerprint(spec) == "09f563eddbea"
        assert parse_spec(EVERY_KEY_CANONICAL) == spec

    def test_roundtrip_custom(self):
        spec = parse_spec(SMALL_SIR)
        assert parse_spec(canonical_yaml(spec)) == spec

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_roundtrip_presets(self, name):
        spec = PRESETS[name]
        assert parse_spec(canonical_yaml(spec)) == spec

    def test_scalar_sigma2_expands_to_both_domains(self):
        spec = parse_spec("kind: sir-channel\nsigma2: 0.01\n")
        assert spec.sigma2_for("affine") == 0.01
        assert spec.sigma2_for("filtered") == 0.01

    def test_integral_numbers_read_as_integers(self):
        spec = parse_spec(SMALL_BER.replace("trials: 6", "trials: 6.0")
                          + "qam_order: 16.0\n")
        assert (spec.trials, spec.qam_order) == (6, 16)
        assert type(spec.trials) is int and type(spec.qam_order) is int

    def test_dotless_exponent_reads_as_a_number(self):
        # YAML leaves 1e-3 a string; float() reads it.
        spec = parse_spec("kind: sir-channel\nsigma2: 1e-3\n")
        assert spec.sigma2_for("affine") == 1e-3

    def test_unknown_keys_rejected(self):
        for text, reason in (
                ("kind: ber\nsnr: [1]\n", "unknown config keys: ['snr']"),
                ("kind: ber\nmodulation: {filters: [phydyas], Ll: 64}\n",
                 "unknown config keys: ['modulation.Ll', "
                 "'modulation.filters']"),
                ("kind: ber\nchannel: {paths: 2, delay: 4}\n",
                 "unknown config keys: ['channel.delay']"),
                ("kind: ber\nmodulation: 5\n", "modulation must be a mapping"),
                ("kind: ber\nchannel:\n", "channel must be a mapping")):
            with pytest.raises(ValueError) as err:
                parse_spec(text)
            assert str(err.value) == reason

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("- a\n- b\n")

    def test_fingerprint_ignores_output_dir(self):
        a = parse_spec(SMALL_SIR)
        b = parse_spec(SMALL_SIR.replace("output: out", "output: elsewhere"))
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_fingerprint_tracks_seed(self):
        a = parse_spec(SMALL_SIR)
        b = parse_spec(SMALL_SIR.replace("seed: 11", "seed: 12"))
        assert spec_fingerprint(a) != spec_fingerprint(b)


# Frames of L=8, K=2, N=16 under Hermite hold 24 + 8 = 32 samples.
TOY_SIR = """
kind: sir-channel
modulation: {{L: 8, K: 2, N: 16, P: [12], filter: [hermite]}}
channel: {{paths: 2, delay_max: {delay_max}, doppler_max: 0.5}}
realizations: 1
"""


class TestValidate:

    @given(st.integers(32, 500), st.sampled_from(["sir-channel", "ber"]))
    @settings(max_examples=25, deadline=None)
    def test_delay_beyond_frame_refused(self, delay_max, kind):
        text = TOY_SIR.format(delay_max=delay_max)
        spec = parse_spec(text.replace("kind: sir-channel", f"kind: {kind}"))
        hits = [v for v in validate(spec) if "alias" in v]
        assert hits == [f"hermite/P=12: delay_max {delay_max} must be below "
                        f"the frame size 32; longer delays alias under the "
                        f"cyclic shift"]
        # a hard refusal: the separability override does not lift it
        with pytest.raises(ValueError, match="frame size 32"):
            run(spec, override_orthogonality=True, workers=1)

    @given(st.integers(1, 31))
    @settings(max_examples=15, deadline=None)
    def test_delay_within_frame_not_refused_for_aliasing(self, delay_max):
        spec = parse_spec(TOY_SIR.format(delay_max=delay_max))
        assert not [v for v in validate(spec) if "alias" in v]

    def test_clean_spec(self):
        assert validate(parse_spec(SMALL_SIR)) == []

    def test_bad_kind(self):
        bad = parse_spec(SMALL_SIR.replace("kind: sir-channel", "kind: sir"))
        assert any("kind" in v for v in validate(bad))

    def test_bad_domain(self):
        bad = parse_spec(SMALL_SIR.replace("affine, filtered", "affine, x"))
        assert any("domain" in v for v in validate(bad))

    def test_geometry_violation_names_scenario(self):
        bad = parse_spec(SMALL_SIR.replace("P: [48, 64]", "P: [16]"))
        assert any(v.startswith("hermite/P=16") for v in validate(bad))

    def test_separability_reports_computed_margin(self):
        bad = parse_spec(SMALL_SIR.replace("delay_max: 12", "delay_max: 40"))
        hits = [v for v in validate(bad)
                if v.startswith("orthogonality condition")]
        assert hits and "122 > 48" in hits[0]

    @pytest.mark.parametrize("value", [".nan", ".inf", "-0.5"])
    def test_bad_doppler_is_a_hard_violation(self, tmp_path, capsys, value):
        bad = parse_spec(SMALL_SIR.replace("doppler_max: 1.0",
                                           f"doppler_max: {value}"))
        want = f"doppler_max must be finite and >= 0, got {bad.doppler_max}"
        assert want in validate(bad)
        # the separability override does not lift it
        with pytest.raises(ValueError, match=want):
            run(bad, override_orthogonality=True, workers=1)

    def test_empty_snr_grid(self):
        bad = parse_spec(SMALL_BER.replace("snr_db: [6, 12]", "snr_db: []"))
        assert any("snr_db" in v for v in validate(bad))

    def test_sigma2_missing_a_domain_refused_before_compute(self):
        bad = parse_spec(SMALL_SIR.replace(
            "sigma2: {affine: 3.0e-3, filtered: 3.0e-4}",
            "sigma2: {affine: 3.0e-3}"))
        assert "sigma2 has no value for domain(s) ['filtered']" in \
            validate(bad)
        with pytest.raises(ValueError, match="no value for domain"):
            run(bad, workers=1)

    def test_sigma2_unknown_domain_key_refused_before_compute(self):
        bad = parse_spec(SMALL_SIR.replace("filtered: 3.0e-4",
                                           "filtred: 3.0e-4"))
        problems = validate(bad)
        assert "unknown sigma2 domain 'filtred'; expected 'affine' or " \
            "'filtered'" in problems
        assert "sigma2 has no value for domain(s) ['filtered']" in problems
        with pytest.raises(ValueError, match="filtred"):
            run(bad, workers=1)

    def test_sigma2_only_needs_the_selected_domains(self):
        spec = parse_spec(SMALL_SIR.replace(
            "sigma2: {affine: 3.0e-3, filtered: 3.0e-4}",
            "sigma2: {affine: 3.0e-3}").replace("[affine, filtered]",
                                                "[affine]"))
        assert validate(spec) == []

    @pytest.mark.parametrize("order", [0, 1, 2, 8, 32, 48, -4])
    def test_ber_qam_order_refused_before_compute(self, order):
        bad = parse_spec(SMALL_BER + f"qam_order: {order}\n")
        hits = [v for v in validate(bad) if v.startswith("qam_order")]
        assert hits == [f"qam_order: order must be an even power of 2 "
                        f"(4, 16, 64, ...), got {order}"]
        with pytest.raises(ValueError, match="qam_order"):
            run(bad, workers=1)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_ber_square_qam_orders_accepted(self, order):
        assert validate(parse_spec(SMALL_BER + f"qam_order: {order}\n")) == []

    @pytest.mark.parametrize("base,old,new,reason", [
        (SMALL_SIR, "affine: 3.0e-3", "affine: .nan",
         "sigma2[affine] must be finite, got nan"),
        (SMALL_SIR, "filtered: 3.0e-4", "filtered: .inf",
         "sigma2[filtered] must be finite, got inf"),
        (SMALL_BER, "snr_db: [6, 12]", "snr_db: [6, .nan]",
         "snr_db entries must be finite, got nan"),
        (SMALL_BER, "snr_db: [6, 12]", "snr_db: [-.inf, 12]",
         "snr_db entries must be finite, got -inf"),
        (SMALL_SIR, "seed: 11", "seed: -1", "seed must be >= 0, got -1"),
        (SMALL_BER, "seed: 5", "seed: -5", "seed must be >= 0, got -5"),
        (SMALL_BER, "min_bit_errors: 10",
         "min_bit_errors: 10\nemit_heatmap: true",
         "emit_heatmap applies to sir-channel only; 'ber' writes no "
         "heatmap"),
        (SMALL_SIR, "kind: sir-channel",
         "kind: sir-waveform\nemit_heatmap: true",
         "emit_heatmap applies to sir-channel only; 'sir-waveform' writes "
         "no heatmap"),
        (SMALL_SIR, "L: 32", "L: 0", "L must be positive, got 0"),
        (SMALL_SIR, "L: 32", "L: -4", "L must be positive, got -4"),
        (SMALL_BER, "P: [48]", "P: [0]", "P must be positive, got 0"),
        (SMALL_SIR, "filter: [hermite]", "filter: [gauss]",
         "filter must be one of ['hermite', 'phydyas'], got 'gauss'"),
        (SMALL_BER, "{L: 32, K: 4, N: 64, P: [48], filter: [hermite]}\n"
                    "channel: {paths: 3, delay_max: 12",
         "{L: 4, K: 2, N: 6, P: [6], filter: [phydyas]}\n"
         "channel: {paths: 1, delay_max: 0",
         "phydyas/P=6: N must be even and >= 8, got 6"),
    ])
    def test_bad_values_refused_before_compute(self, base, old, new, reason,
                                               monkeypatch):
        bad = parse_spec(base.replace(old, new))
        assert reason in validate(bad)

        def no_compute(*args, **kwargs):
            raise AssertionError("ran past validation")

        for kind in cli._RUNNERS:
            monkeypatch.setitem(cli._RUNNERS, kind, no_compute)
        with pytest.raises(ValueError) as refused:
            run(bad, workers=1)
        assert str(refused.value) == reason

    @pytest.mark.parametrize("field,values,reason", [
        ("P", (48, 48), "P has duplicate entries [48]"),
        ("filters", ("hermite", "phydyas", "hermite"),
         "filters has duplicate entries ['hermite']"),
        ("domains", ("filtered", "filtered"),
         "domains has duplicate entries ['filtered']"),
    ])
    def test_duplicate_grid_entries_refused_before_compute(
            self, monkeypatch, field, values, reason):
        bad = replace(parse_spec(SMALL_SIR), **{field: values})
        assert reason in validate(bad)

        def no_compute(*args, **kwargs):
            raise AssertionError("ran past validation")

        monkeypatch.setitem(cli._RUNNERS, "sir-channel", no_compute)
        with pytest.raises(ValueError) as refused:
            run(bad, workers=1)
        assert str(refused.value) == reason


class TestRun:

    def test_hard_violation_raises(self):
        bad = parse_spec(SMALL_SIR.replace("P: [48, 64]", "P: [16]"))
        with pytest.raises(ValueError):
            run(bad)

    def test_soft_violation_needs_override(self):
        soft = parse_spec(SMALL_SIR.replace("delay_max: 12",
                                            "delay_max: 40"))
        soft = replace(soft, realizations=1)
        with pytest.raises(ValueError):
            run(soft)
        report = run(soft, override_orthogonality=True, workers=1)
        assert report.rows

    def test_report_contents(self):
        spec = parse_spec(SMALL_SIR)
        report = run(spec, workers=1)
        assert report.kind == "sir-channel"
        assert report.fingerprint == spec_fingerprint(spec)
        metrics = {r[3] for r in report.rows}
        assert {"average_db", "minimum_db", "maximum_db"} <= metrics
        # per-realization samples: 2 scenarios x 2 domains x 3 draws
        assert len(report.samples) == 12

    def test_waveform_sir_is_a_python_float(self):
        spec = parse_spec("kind: sir-waveform\nmodulation: {L: 32, K: 4, "
                          "N: 64, P: [48, 64], filter: [hermite]}\n")
        values = [row[5] for row in run(spec, workers=1).rows]
        assert [type(v) for v in values] == [float, float]


class TestMainAndOutputs:

    def write(self, tmp_path, text, name="spec.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_validate_subcommand_ok(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SMALL_SIR)
        assert main(["validate", "--config", cfg]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_validate_subcommand_reports(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SMALL_SIR.replace("delay_max: 12",
                                                     "delay_max: 40"))
        assert main(["validate", "--config", cfg]) == 1
        assert "violation" in capsys.readouterr().out

    def test_validate_names_a_family_with_no_design(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SMALL_SIR.replace("filter: [hermite]",
                                                     "filter: [custom]"))
        assert main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().out == (
            "violation: filter must be one of ['hermite', 'phydyas'], "
            "got 'custom'\n")

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_SIR)
        assert main(["ber", "--config", cfg]) == 2

    def test_unknown_preset_rejected(self):
        assert main(["ber", "--preset", "nonexistent"]) == 2

    def test_malformed_section_rejected(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SMALL_BER.replace(
            "modulation: {L: 32, K: 4, N: 64, P: [48], filter: [hermite]}",
            "modulation: 5"))
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == \
            "error: modulation must be a mapping\n"

    @pytest.mark.parametrize("command", ["validate", "ber"])
    def test_malformed_yaml_rejected(self, tmp_path, capsys, monkeypatch,
                                     command):
        # Status 2 and an error line, not a traceback: for validate,
        # status 1 would read as "violations found".
        monkeypatch.chdir(tmp_path)
        cfg = self.write(tmp_path, "kind: ber\nmodulation: {L: 32\n")
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config is not valid YAML: ")
        assert os.listdir(tmp_path) == ["spec.yaml"]

    @pytest.mark.parametrize("old,new,reason", [
        ("modulation: {L: 32,", "modulation: {L: [1],",
         "modulation.L must be an integer, got [1]"),
        ("min_bit_errors: 10", "min_bit_errors: 10\nsigma2: [1]",
         "sigma2 must be a number, got [1]"),
        # Nothing is truncated or coerced on the way in.
        ("K: 4,", "K: 8.9,", "modulation.K must be an integer, got 8.9"),
        ("L: 32,", "L: 128.7,", "modulation.L must be an integer, got 128.7"),
        ("P: [48]", "P: [48, 64.5]",
         "modulation.P must be an integer, got 64.5"),
        ("trials: 6", "trials: '6'", "trials must be an integer, got '6'"),
        ("min_bit_errors: 10", "min_bit_errors: 10\nrealizations: 2.5",
         "realizations must be an integer, got 2.5"),
        ("min_bit_errors: 10", "min_bit_errors: 10\nqam_order: true",
         "qam_order must be an integer, got True"),
        ("doppler_max: 1.0", "doppler_max: true",
         "channel.doppler_max must be a number, got True"),
        ("min_bit_errors: 10", "min_bit_errors: 10\nemit_heatmap: 'false'",
         "emit_heatmap must be true or false, got 'false'"),
        ("min_bit_errors: 10", "min_bit_errors: 10\nemit_heatmap: 0",
         "emit_heatmap must be true or false, got 0"),
        ("output: out", "output: [x]", "output must be a string, got ['x']"),
        ("filter: [hermite]", "filter: [hermite, 3]",
         "modulation.filter must be a string, got 3"),
        ("kind: ber", "kind: 5", "kind must be a string, got 5"),
    ])
    def test_mistyped_value_rejected(self, tmp_path, capsys, old, new,
                                     reason):
        cfg = self.write(tmp_path, SMALL_BER.replace(old, new))
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize("old,new,reason", [
        ("P: [48]", "P: [48, 48]", "P has duplicate entries [48]"),
        ("filter: [hermite]", "filter: [hermite, hermite]",
         "filters has duplicate entries ['hermite']"),
        ("domains: [affine, filtered]",
         "domains: [filtered, affine, filtered]",
         "domains has duplicate entries ['filtered']"),
        ("snr_db: [6, 12]", "snr_db: [6, 12, 6.0]",
         "snr_db has duplicate entries [6.0]"),
    ])
    def test_duplicate_grid_entry_is_a_violation(self, tmp_path, capsys,
                                                 old, new, reason):
        # A repeated grid entry would be computed and written twice.
        out = tmp_path / "never"
        cfg = self.write(tmp_path, SMALL_BER.replace(old, new))
        assert main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().out == f"violation: {reason}\n"
        assert main(["ber", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()

    def test_config_and_preset_conflict(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_SIR)
        assert main(["sir-channel", "--config", cfg,
                     "--preset", "channel-stats"]) == 2

    def test_gate_leaves_no_outputs(self, tmp_path):
        out = tmp_path / "never"
        cfg = self.write(tmp_path, SMALL_SIR.replace("delay_max: 12",
                                                     "delay_max: 40"))
        assert main(["sir-channel", "--config", cfg,
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_unusable_out_refused_before_compute(self, tmp_path, capsys,
                                                 monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("run reached")

        monkeypatch.setattr(cli, "run", no_compute)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cfg = self.write(tmp_path, SMALL_SIR)
        out = blocker / "x"
        assert main(["sir-channel", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write results to {str(out)!r}: "
            f"{str(blocker)!r} is not a directory\n")
        assert blocker.read_text() == "not a directory"

    def test_missing_out_levels_are_not_created_early(self, tmp_path):
        assert cli._unwritable(str(tmp_path / "a" / "b")) is None
        assert not (tmp_path / "a").exists()

    def test_ber_writes_expected_files(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SMALL_BER)
        out = tmp_path / "res"
        assert main(["ber", "--config", cfg, "--out", str(out),
                     "--workers", "1"]) == 0
        files = sorted(p.name for p in out.iterdir())
        spec = parse_spec(SMALL_BER)
        digest = spec_fingerprint(spec)
        assert files == [f"ber-{digest}.csv", "summary.txt"]
        body = (out / f"ber-{digest}.csv").read_text().splitlines()
        assert body[0].startswith("# afbm ")
        assert digest in body[0]
        assert body[1] == "filter,P,domain,snr_db,bit_errors,bits_total,ber"
        assert len(body) == 2 + 4    # 1 scenario x 2 domains x 2 SNRs

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_SIR)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sir-channel", "--config", cfg, "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["sir-channel", "--config", cfg, "--out", str(out2),
                     "--workers", "1"]) == 0
        for p in sorted(out1.glob("*.csv")):
            assert (out2 / p.name).read_bytes() == p.read_bytes()

    def test_seed_override_changes_fingerprint(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_SIR)
        out = tmp_path / "seeded"
        assert main(["sir-channel", "--config", cfg, "--out", str(out),
                     "--seed", "77", "--workers", "1"]) == 0
        spec = parse_spec(SMALL_SIR)
        assert not list(out.glob(f"*{spec_fingerprint(spec)}*"))

    def test_samples_csv_covers_every_realization(self, tmp_path):
        spec = parse_spec(SMALL_SIR)
        report = run(spec, workers=1)
        paths = write_report(spec, report, str(tmp_path / "s"))
        samples = [p for p in paths if p.endswith("-samples.csv")]
        assert len(samples) == 1
        rows = open(samples[0]).read().splitlines()[2:]
        assert len(rows) == 12
        assert rows[0].split(",")[:4] == ["hermite", "48", "affine", "0"]

    def test_worker_count_does_not_change_written_files(self, tmp_path):
        # 10 realizations: the two-worker pool runs more than one chunk.
        text = SMALL_SIR.replace("P: [48, 64]", "P: [48]") \
            .replace("realizations: 3", "realizations: 10") \
            + "emit_heatmap: true\n"
        spec = parse_spec(text)
        written = {}
        for workers in (1, 2):
            paths = write_report(spec, run(spec, workers=workers),
                                 str(tmp_path / f"w{workers}"))
            written[workers] = {os.path.basename(p): open(p, "rb").read()
                                for p in paths
                                if not p.endswith("summary.txt")}
        names = sorted(written[1])
        assert names == sorted(written[2])
        assert len([n for n in names if "-heatmap-" in n]) == 2
        assert any(n.endswith("-samples.csv") for n in names)
        for name in names:
            assert written[1][name] == written[2][name], name

    def test_heatmap_emission(self, tmp_path):
        text = SMALL_SIR + "emit_heatmap: true\n"
        text = text.replace("P: [48, 64]", "P: [48]")
        text = text.replace("realizations: 3", "realizations: 2")
        spec = parse_spec(text)
        report = run(spec, workers=1)
        paths = write_report(spec, report, str(tmp_path / "h"))
        maps = [p for p in paths if "-heatmap-" in os.path.basename(p)]
        assert [os.path.basename(p) for p in maps] == [
            f"sir-channel-{report.fingerprint}-heatmap-hermite-P48-{d}.csv"
            for d in ("affine", "filtered")]
        header = open(maps[0]).read().splitlines()[1]
        assert header == "row,col,power"

    def test_heatmaps_of_two_experiments_share_a_directory(self, tmp_path):
        # Two experiments that differ only in their seed, written to one
        # directory, keep every heatmap, each stamped with its own hash.
        text = SMALL_SIR.replace("P: [48, 64]", "P: [48]") \
            .replace("realizations: 3", "realizations: 1") \
            + "emit_heatmap: true\n"
        specs = [parse_spec(text), parse_spec(text.replace("seed: 11",
                                                           "seed: 12"))]
        maps = {}
        for spec in specs:
            fingerprint = spec_fingerprint(spec)
            for path in write_report(spec, run(spec, workers=1),
                                     str(tmp_path)):
                if "-heatmap-" in path:
                    maps[path] = f"# afbm {__version__} spec={fingerprint}"
        assert len(maps) == 4
        assert len(set(maps.values())) == 2
        assert sorted(n for n in os.listdir(tmp_path) if "-heatmap-" in n) \
            == sorted(os.path.basename(p) for p in maps)
        for path, stamp in maps.items():
            assert open(path).readline().rstrip("\n") == stamp

    @pytest.mark.parametrize("averaging", ["db", "linear"])
    def test_summary_counts_infinite_samples(self, tmp_path, averaging):
        # At sigma2 = 0 every filtered sample and some affine ones read
        # +inf, which the CSV's average_db rows show only as +inf; the
        # summary averages the finite ones under the spec's rule.
        text = SMALL_SIR.replace(
            "sigma2: {affine: 3.0e-3, filtered: 3.0e-4}", "sigma2: 0") \
            .replace("averaging: db", f"averaging: {averaging}")
        spec = parse_spec(text)
        paths = write_report(spec, run(spec, workers=1), str(tmp_path))
        samples_csv = next(p for p in paths if p.endswith("-samples.csv"))
        samples = {}
        for row in open(samples_csv).read().splitlines()[2:]:
            family, P, domain, _, sir_db = row.split(",")
            samples.setdefault(f"{family}/P={P}/{domain}", []).append(
                float(sir_db))
        want = []
        for name, values in samples.items():
            finite = np.array([v for v in values if np.isfinite(v)])
            line = (f"  {name}: {values.count(np.inf)} of 3 +inf; "
                    f"{finite.size} finite")
            if finite.size:
                average = (10 * np.log10(np.mean(10 ** (finite / 10)))
                           if averaging == "linear" else np.mean(finite))
                line += f", average {average:.4f} dB"
            want.append(line)
        summary = (tmp_path / "summary.txt").read_text()
        title = f"\n+inf SIR samples, and the finite ones' {averaging} " \
                f"average:\n"
        assert summary.split(title)[1].splitlines() == want
        assert [line for line in want if "/filtered:" in line] == [
            f"  hermite/P={P}/filtered: 3 of 3 +inf; 0 finite"
            for P in (48, 64)]
        assert any("of 3 +inf; 2 finite, average " in line for line in want)

    def test_summary_counts_ber_frames(self, tmp_path):
        # Of 60 trials, run in batches of 25 frames, the -10 dB points
        # reach 300 errors in their first batch and the 30 dB points
        # use the whole budget.
        text = SMALL_BER.replace("snr_db: [6, 12]", "snr_db: [-10, 30]") \
            .replace("trials: 6", "trials: 60") \
            .replace("min_bit_errors: 10", "min_bit_errors: 300")
        spec = parse_spec(text)
        report = run(spec, workers=1)
        write_report(spec, report, str(tmp_path))
        summary = (tmp_path / "summary.txt").read_text()
        lines = summary.split("\nBER frames used:\n")[1].splitlines()
        bits = 4 * 32 // 2 * 2
        assert [row[5] // bits for row in report.rows] == [25, 60, 25, 60]
        assert lines == [
            f"  hermite/P=48/{domain} at {snr!r} dB: {frames} of 60 frames"
            + (", stopped early" if frames < 60 else "")
            for domain in ("affine", "filtered")
            for snr, frames in ((-10.0, 25), (30.0, 60))]


class _Unprintable:
    """A CSV cell whose formatting fails, to break a write partway."""

    def __str__(self):
        raise RuntimeError("write failed partway")

    __repr__ = __str__


class _UnformattableFloat(float):
    """Passes the CSV writer (repr of the float) but fails the summary's
    fixed-point formatting."""

    def __format__(self, spec):
        raise RuntimeError("write failed partway")


class TestAtomicWrites:

    HEADER = ("filter", "P", "domain", "snr_db", "bit_errors",
              "bits_total", "ber")

    def report(self, bad_row=None, bad_value=None):
        rows = [("hermite", 48, "affine", float(snr), 3, 100, 0.03)
                for snr in range(4)]
        if bad_row is not None:
            rows[bad_row] = rows[bad_row][:-1] + (bad_value,)
        return ExperimentReport(
            fingerprint="0123456789ab", version="test", kind="ber",
            elapsed_s=0.0, rows=tuple(rows), header=self.HEADER)

    @staticmethod
    def listing(out):
        return sorted(os.listdir(out))

    @pytest.mark.parametrize("bad_row", [0, 2, 3])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_csv_leaves_no_partial_file(self, tmp_path, bad_row,
                                               existing):
        spec = parse_spec(SMALL_BER)
        out = tmp_path / "res"
        out.mkdir()
        final = out / "ber-0123456789ab.csv"
        if existing:
            final.write_text("previous result\n")
        with pytest.raises(RuntimeError, match="partway"):
            write_report(spec, self.report(bad_row, _Unprintable()),
                         str(out))
        if existing:
            assert final.read_text() == "previous result\n"
            assert self.listing(out) == [final.name]
        else:
            assert self.listing(out) == []

    def test_failed_summary_keeps_previous_summary(self, tmp_path):
        spec = parse_spec(SMALL_BER)
        out = tmp_path / "res"
        out.mkdir()
        (out / "summary.txt").write_text("previous summary\n")
        with pytest.raises(RuntimeError, match="partway"):
            write_report(spec, self.report(1, _UnformattableFloat(0.5)),
                         str(out))
        assert (out / "summary.txt").read_text() == "previous summary\n"
        # The CSV before it completed and was moved into place whole.
        assert self.listing(out) == ["ber-0123456789ab.csv", "summary.txt"]
        body = (out / "ber-0123456789ab.csv").read_text().splitlines()
        assert len(body) == 2 + 4

    def test_failed_heatmap_leaves_no_partial_file(self, tmp_path,
                                                   monkeypatch):
        text = SMALL_SIR.replace("P: [48, 64]", "P: [48]") \
            .replace("realizations: 3", "realizations: 1") \
            .replace("domains: [affine, filtered]", "domains: [affine]") \
            + "emit_heatmap: true\n"
        spec = parse_spec(text)
        assert spec.domains == ("affine",) and spec.emit_heatmap
        report = run(spec, workers=1)
        [(_, power)] = report.heatmaps
        rows = cli._heatmap_rows
        side = cli._side(power.size)

        def failing_halfway(power):
            for i, text in enumerate(rows(power)):
                if i == side // 2:
                    raise RuntimeError("write failed partway")
                yield text

        monkeypatch.setattr(cli, "_heatmap_rows", failing_halfway)
        out = tmp_path / "h"
        with pytest.raises(RuntimeError, match="partway"):
            write_report(spec, report, str(out))
        names = self.listing(out)
        assert not [n for n in names if "-heatmap-" in n]
        assert not [n for n in names if n.endswith(".tmp")]


def _per_cell_heatmap(path, stamp, packed):
    """The heatmap writer before it formatted a row at a time, reading
    cell (i, j) of the symmetric map from the packed lower triangle."""
    n = cli._side(len(packed))
    with open(path, "w") as fh:
        fh.write(stamp)
        fh.write("row,col,power\n")
        for i in range(n):
            for j in range(n):
                lo, hi = min(i, j), max(i, j)
                cell = packed[hi * (hi + 1) // 2 + lo]
                fh.write(f"{i},{j},{cli._num(cell)}\n")


def _packed_map(n, seed, specials=()):
    """A random packed lower triangle of side n; ``specials`` fill its
    column 0 from the diagonal down, so they are mirrored along row 0."""
    rng = np.random.default_rng(seed)
    size = n * (n + 1) // 2
    packed = rng.random(size) * 10.0 ** rng.integers(-300, 300, size)
    packed[[j * (j + 1) // 2 for j in range(len(specials))]] = specials
    return packed


def _edge_maps():
    """Maps the writer formats, and maps it refuses: those that are not
    1-D, float64 or of a triangular length."""
    tiny = np.finfo(float).tiny
    specials = [0.0, 5e-324, tiny / 3, tiny, 1e-300, 1.0 / 3.0,
                9999999999999998.0, 1e16, 1.2345678901234567e16,
                np.finfo(float).max]
    mirrored = _packed_map(12, 5, specials)
    signed = mirrored.copy()
    signed[7 * 8 // 2 + 3] = -0.0
    nan = mirrored.copy()
    nan[4 * 5 // 2 + 4] = nan[9 * 10 // 2 + 2] = np.nan
    nan[11 * 12 // 2 + 5] = -np.nan
    formatted = {"mirrored-specials": mirrored,
                 "signed-zero": signed,
                 "nan-mirrored": nan,
                 "one-by-one": np.array([0.1 + 0.2]),
                 "empty": np.zeros(0)}
    refused = {"square": np.eye(3),
               "no-columns": np.zeros((3, 0)),
               "scalar": np.float64(1.0).reshape(()),
               "not-triangular": np.zeros(4),
               "float32": np.ones(3, dtype=np.float32),
               "objects": np.ones(3).astype(object)}
    return formatted, refused


_EDGE_MAPS, _REFUSED_MAPS = _edge_maps()


class TestHeatmapWriter:

    NAME = "ber-0123456789ab-heatmap-hermite-P48-affine.csv"

    def test_rows_match_the_per_cell_writer(self, tmp_path):
        tiny = np.finfo(float).tiny
        values = [0.0, 5e-324, tiny / 3, np.nextafter(tiny, 0), tiny,
                  1e-300, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0,
                  np.nextafter(1.0, 2.0), 123456.78901234567, 1e16,
                  1.2345678901234567e16, 2.0 ** 60, 9.999999999999998e22,
                  1e300, np.finfo(float).max]
        packed = _packed_map(len(values) + 3, 3, values)
        report = replace(TestAtomicWrites().report(),
                         heatmaps=((("hermite", 48, "affine"), packed),))
        stamp = "# afbm test spec=0123456789ab\n"
        [path] = cli._write_heatmaps(report, str(tmp_path), stamp)
        _per_cell_heatmap(tmp_path / "per-cell.csv", stamp, packed)
        got = open(path, "rb").read()
        assert got == (tmp_path / "per-cell.csv").read_bytes()
        assert os.path.basename(path) == self.NAME
        assert got.count(b"\n") == 2 + (len(values) + 3) ** 2

    @staticmethod
    def assert_matches_per_cell(out_dir, packed):
        report = replace(TestAtomicWrites().report(),
                         heatmaps=((("hermite", 48, "affine"), packed),))
        stamp = "# afbm test spec=0123456789ab\n"
        [path] = cli._write_heatmaps(report, str(out_dir), stamp)
        want = os.path.join(out_dir, "per-cell.csv")
        _per_cell_heatmap(want, stamp, packed)
        assert open(path, "rb").read() == open(want, "rb").read()

    @pytest.mark.parametrize("name", sorted(_EDGE_MAPS))
    def test_edge_maps_match_the_per_cell_writer(self, tmp_path, name):
        self.assert_matches_per_cell(tmp_path, _EDGE_MAPS[name])

    @pytest.mark.parametrize("name", sorted(_REFUSED_MAPS))
    def test_refuses_a_map_that_is_not_a_packed_float64_triangle(
            self, tmp_path, name):
        report = replace(TestAtomicWrites().report(), heatmaps=(
            (("hermite", 48, "affine"), _EDGE_MAPS["one-by-one"]),
            (("phydyas", 64, "filtered"), _REFUSED_MAPS[name])))
        with pytest.raises(
                ValueError,
                match="^ber-0123456789ab-heatmap-phydyas-P64-filtered: "):
            cli._write_heatmaps(report, str(tmp_path), "# stamp\n")
        assert os.listdir(tmp_path) == [self.NAME]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pass_maps_are_written_symmetric(self, tmp_path, workers):
        # The maps a sir-channel run makes, at either worker count: each
        # file equals the per-cell writer's, and cell (i, j) reads as
        # cell (j, i).
        text = SMALL_SIR.replace("P: [48, 64]", "P: [48]") \
            + "emit_heatmap: true\n"
        spec = parse_spec(text)
        report = run(spec, workers=workers)
        paths = cli._write_heatmaps(report, str(tmp_path), "# stamp\n")
        assert len(paths) == len(report.heatmaps) == 2
        for path, (_, packed) in zip(paths, report.heatmaps):
            _per_cell_heatmap(tmp_path / "per-cell.csv", "# stamp\n", packed)
            got = open(path).read()
            assert got == (tmp_path / "per-cell.csv").read_text()
            cells = {}
            for line in got.splitlines()[2:]:
                i, j, value = line.split(",")
                cells[int(i), int(j)] = value
            n = spec.K * spec.L // 2
            assert len(cells) == n * n
            assert all(cells[i, j] == cells[j, i] for i, j in cells)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 512])
    def test_side_of_a_packed_triangle(self, n):
        size = n * (n + 1) // 2
        assert cli._side(size) == n
        assert cli._side(size + 1) == (-1 if n > 0 else 1)

    @given(st.integers(1, 24), st.integers(0, 2 ** 16),
           st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_random_packed_maps_match_the_per_cell_writer(self, n, seed,
                                                          specials):
        with tempfile.TemporaryDirectory() as out:
            self.assert_matches_per_cell(
                out, _packed_map(n, seed, specials[:n]))


class TestWorkersDefault:

    def test_counts_the_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert cli._usable_cores() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._usable_cores() == 5

    @pytest.mark.parametrize("asked,used", [(None, 3), (0, 3), (2, 2)])
    def test_run_takes_the_default_from_the_affinity(self, monkeypatch,
                                                     asked, used):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 3},
                            raising=False)
        seen = []

        def runner(spec, workers):
            seen.append(workers)
            return {"header": (), "rows": ()}

        monkeypatch.setitem(cli._RUNNERS, "sir-channel", runner)
        run(parse_spec(SMALL_SIR), workers=asked)
        assert seen == [used]


SRC = str(Path(cli.__file__).resolve().parents[1])
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(*args, **env):
    clean = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    clean["PYTHONPATH"] = SRC + os.pathsep + clean.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env={**clean, **env},
                          capture_output=True, text=True, timeout=120)


class TestEntryModule:

    def test_module_validates_a_preset(self):
        done = _python("-m", "afbm", "validate", "--preset", "channel-stats")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok: no violations\n"

    def test_pins_blas_before_numpy_loads(self):
        show = ("import os, sys, afbm; loaded = 'numpy' in sys.modules; "
                "import afbm.__main__; "
                f"print(loaded, *(os.environ[v] for v in {_BLAS_VARS!r}))")
        done = _python("-c", show)
        assert done.stdout == "False 1 1 1\n", done.stderr

    def test_explicit_environment_wins(self):
        show = ("import os, afbm.__main__; "
                f"print(*(os.environ[v] for v in {_BLAS_VARS!r}))")
        done = _python("-c", show, OPENBLAS_NUM_THREADS="3")
        assert done.stdout == "3 1 1\n", done.stderr


class TestPresets:

    def test_all_presets_validate(self):
        for name, spec in PRESETS.items():
            assert validate(spec) == [], name

    def test_channel_stats_preset_covers_both_domains_and_filters(self):
        spec = PRESETS["channel-stats"]
        assert spec.kind == "sir-channel"
        assert set(spec.filters) == {"hermite", "phydyas"}
        assert set(spec.P) == {192, 256}
        assert spec.realizations == 200
        assert spec.averaging == "db"

    def test_waveform_preset_sweeps_to_full_grid(self):
        spec = PRESETS["waveform-sweep"]
        assert spec.kind == "sir-waveform"
        assert max(spec.P) == spec.N

    def test_fingerprints_are_pinned(self):
        # Output file names and every CSV's stamp line carry these.
        assert {name: spec_fingerprint(spec)
                for name, spec in PRESETS.items()} == {
            "waveform-sweep": "791f831a0847",
            "channel-stats": "da8f22d4433d",
            "ber-curves": "ba075e3731db",
        }

    def test_ber_preset_grid(self):
        spec = PRESETS["ber-curves"]
        assert spec.kind == "ber"
        assert spec.qam_order == 4
        assert len(spec.snr_db) >= 5
