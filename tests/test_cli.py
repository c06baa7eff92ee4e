from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afbm.cli import (PRESETS, main, parse_spec, run, serialize_spec,
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


class TestSpecSerialization:

    def test_roundtrip_custom(self):
        spec = parse_spec(SMALL_SIR)
        assert parse_spec(serialize_spec(spec)) == spec

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_roundtrip_presets(self, name):
        spec = PRESETS[name]
        assert parse_spec(serialize_spec(spec)) == spec

    def test_scalar_sigma2_expands_to_both_domains(self):
        spec = parse_spec("kind: sir-channel\nsigma2: 0.01\n")
        assert spec.sigma2_for("affine") == 0.01
        assert spec.sigma2_for("filtered") == 0.01

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("kind: ber\nsnr: [1]\n")

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

    def test_empty_snr_grid(self):
        bad = parse_spec(SMALL_BER.replace("snr_db: [6, 12]", "snr_db: []"))
        assert any("snr_db" in v for v in validate(bad))


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

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_SIR)
        assert main(["ber", "--config", cfg]) == 2

    def test_unknown_preset_rejected(self):
        assert main(["ber", "--preset", "nonexistent"]) == 2

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

    def test_heatmap_emission(self, tmp_path):
        text = SMALL_SIR + "emit_heatmap: true\n"
        text = text.replace("P: [48, 64]", "P: [48]")
        text = text.replace("realizations: 3", "realizations: 2")
        spec = parse_spec(text)
        report = run(spec, workers=1)
        paths = write_report(spec, report, str(tmp_path / "h"))
        import os
        maps = [p for p in paths if os.path.basename(p).startswith("heatmap")]
        assert len(maps) == 2
        header = open(maps[0]).read().splitlines()[1]
        assert header == "row,col,power"


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

    def test_ber_preset_grid(self):
        spec = PRESETS["ber-curves"]
        assert spec.kind == "ber"
        assert spec.qam_order == 4
        assert len(spec.snr_db) >= 5
