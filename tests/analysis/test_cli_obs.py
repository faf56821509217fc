"""The observability CLI surface: profile, metrics, trace exports,
the validate drift gate, and the bench-all metrics table."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestProfileCommand:
    def test_text_report(self, capsys):
        code, out = run_cli(capsys, "profile", "burstlink")
        assert code == 0
        assert "Energy attribution" in out
        assert "reconciliation:" in out and "[OK]" in out

    def test_json_report(self, capsys):
        code, out = run_cli(capsys, "profile", "conventional", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exhibit"] == "conventional"
        assert payload["reconciliation"]["ok"] is True
        # The acceptance bar: ledger vs Table 2 aggregate under 0.1%.
        assert payload["reconciliation"]["total_rel_err"] < 1e-3

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["profile", "nope"])
        assert excinfo.value.code != 0


class TestMetricsCommand:
    def test_prometheus_exposition(self, capsys):
        code, out = run_cli(
            capsys, "metrics", "--exhibit", "conventional", "--prom"
        )
        assert code == 0
        assert "# TYPE repro_sim_windows_total counter" in out
        assert "repro_sim_window_s_bucket" in out
        assert 'le="+Inf"' in out

    def test_json_snapshot(self, capsys):
        code, out = run_cli(
            capsys, "metrics", "--exhibit", "burstlink", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sim.windows"]["type"] == "counter"

    def test_table_default(self, capsys):
        code, out = run_cli(
            capsys, "metrics", "--exhibit", "conventional"
        )
        assert code == 0
        assert "sim.windows" in out


class TestTraceExports:
    def test_chrome_export_is_loadable(self, capsys, tmp_path):
        target = tmp_path / "chrome.json"
        code, out = run_cli(
            capsys, "trace", "conventional", "--chrome", str(target)
        )
        assert code == 0
        assert "perfetto" in out.lower()
        payload = json.loads(target.read_text(encoding="utf-8"))
        stamps = [
            e["ts"] for e in payload["traceEvents"]
            if e.get("ph") != "M"
        ]
        assert stamps and stamps == sorted(stamps)

    def test_unknown_exhibit_exits_nonzero_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "fig99"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        # The error must name the valid exhibits.
        for exhibit in ("burstlink", "conventional", "vr"):
            assert exhibit in err


class TestValidateGate:
    def test_clean_tree_passes(self, capsys):
        code, out = run_cli(capsys, "validate", "--section", "table2")
        assert code == 0
        assert "drift gate: PASS" in out

    def test_json_payload(self, capsys):
        code, out = run_cli(
            capsys, "validate", "--section", "fig01", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["drift"]["anchors"]

    def test_full_run_includes_accuracy_table(self, capsys):
        code, out = run_cli(capsys, "validate", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["validation"]["mean_accuracy"] > 0.9
        assert len(payload["drift"]["anchors"]) == 19


class TestBenchAll:
    def test_prints_metrics_table(self, capsys):
        code, out = run_cli(
            capsys, "bench-all", "--only", "table2", "--no-cache-dir",
        )
        assert code == 0
        rows = [line.split()[0] for line in out.splitlines() if line]
        assert "table2" in rows and "total" in rows
        assert "1 exhibits in" in out


class TestObsDiffCommand:
    def _profile(self, path, total):
        path.write_text(
            json.dumps({"ledger": {"total_mj": total}}),
            encoding="utf-8",
        )
        return str(path)

    def test_identical_profiles_exit_zero(self, capsys, tmp_path):
        a = self._profile(tmp_path / "a.json", 10.0)
        b = self._profile(tmp_path / "b.json", 10.0)
        code, out = run_cli(capsys, "obs", "diff", a, b)
        assert code == 0
        assert "no drift" in out

    def test_drifted_profiles_exit_one_with_json(self, capsys, tmp_path):
        a = self._profile(tmp_path / "a.json", 10.0)
        b = self._profile(tmp_path / "b.json", 11.0)
        code, out = run_cli(capsys, "obs", "diff", a, b, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["deltas"]["ledger.total_mj"]["delta"] == 1.0


    @pytest.mark.parametrize(
        "argv",
        [("diff", "nope.jsonl", "x.jsonl"), ("chrome", "nope.jsonl", "o")],
        ids=["diff", "chrome"],
    )
    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe\x00bad"], ids=["missing", "binary"]
    )
    def test_unreadable_input_is_a_clean_error(
        self, capsys, tmp_path, monkeypatch, argv, content
    ):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "nope.jsonl").write_bytes(content)
        code, out = run_cli(capsys, "obs", *argv)
        assert code == 1
        assert out.startswith("error: ")
        assert "nope.jsonl" in out


class TestParallelTraceSmoke:
    """End to end: a parallel traced regeneration diffs clean against
    the sequential one, and the merged trace converts to Chrome JSON
    with one thread track per worker."""

    def test_jobs_trace_matches_sequential(self, capsys, tmp_path):
        merged = tmp_path / "merged.jsonl"
        sequential = tmp_path / "seq.jsonl"
        code = main(
            [
                "figures", "--out", str(tmp_path / "figs"),
                "--jobs", "2", "--trace", str(merged), "--progress",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "wrote trace" in captured.out
        # Live worker heartbeats rendered on stderr.
        assert "done in" in captured.err
        code = main(
            [
                "figures", "--out", str(tmp_path / "figs-seq"),
                "--trace", str(sequential),
            ]
        )
        capsys.readouterr()
        assert code == 0

        code, out = run_cli(
            capsys, "obs", "diff", str(merged), str(sequential)
        )
        assert code == 0
        assert "no structural drift" in out

        # A perturbed trace (one span dropped) must fail the diff.
        lines = merged.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            event = json.loads(line)
            if event["kind"] == "B" and event["name"] == "sim.window":
                del lines[index]
                break
        perturbed = tmp_path / "perturbed.jsonl"
        perturbed.write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        code, out = run_cli(
            capsys, "obs", "diff", str(perturbed), str(sequential)
        )
        assert code == 1
        assert "sim.window" in out

        # Chrome conversion: one track per worker plus the main track.
        chrome = tmp_path / "chrome.json"
        code, out = run_cli(
            capsys, "obs", "chrome", str(merged), str(chrome)
        )
        assert code == 0
        payload = json.loads(chrome.read_text(encoding="utf-8"))
        names = {
            record["args"]["name"]
            for record in payload["traceEvents"]
            if record["ph"] == "M" and record["name"] == "thread_name"
        }
        assert {"main", "worker 1", "worker 2"} <= names


class TestFiguresFormats:
    def test_vega_emits_spec_and_csv_for_every_exhibit(
        self, capsys, tmp_path
    ):
        from repro.analysis.figures import figure_registry
        from repro.analysis.vega import spec_problems

        out = tmp_path / "specs"
        code, text = run_cli(
            capsys, "figures", "--format", "vega", "--out", str(out)
        )
        assert code == 0
        assert f"{len(figure_registry())} figures" in text
        for name in figure_registry():
            spec = json.loads(
                (out / f"{name}.vl.json").read_text(encoding="utf-8")
            )
            assert spec_problems(spec) == [], name
            assert (out / f"{name}.csv").exists()

    def test_default_svg_output_unchanged(self, capsys, tmp_path):
        code, text = run_cli(
            capsys, "figures", "--out", str(tmp_path / "figs")
        )
        assert code == 0
        assert "6 figures" in text

    def test_svg_format_rejects_multi_seed(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "figures", "--seeds", "2",
            "--out", str(tmp_path / "figs"),
        )
        assert code == 1
        assert "error:" in out and "--format vega" in out


class TestStatsRunCommand:
    def test_json_payload(self, capsys, tmp_path):
        out = tmp_path / "specs"
        code, text = run_cli(
            capsys, "stats", "run", "--figure", "fig04",
            "--figure", "standby", "--seeds", "2",
            "--out", str(out), "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["seeds"] == 2
        est = payload["metrics"]["fig04.browsing"]
        assert est["n"] == 2
        assert est["lo"] <= est["mean"] <= est["hi"]
        assert (
            "standby.burstlink.power_mw vs "
            "standby.conventional.power_mw"
        ) in payload["effect_sizes"]
        # Replication task labels carry cache counters.
        assert "fig04@s0" in payload["tasks"]
        assert {"cache_hits", "cache_misses"} <= set(
            payload["tasks"]["fig04@s0"]
        )
        # Interval artifacts land next to each other.
        spec = json.loads(
            (out / "fig04.vl.json").read_text(encoding="utf-8")
        )
        assert "layer" in spec
        header = (out / "fig04.csv").read_text(
            encoding="utf-8"
        ).splitlines()[0]
        assert header.endswith("value_lo,value_hi,value_sd,seeds")

    def test_text_report(self, capsys):
        code, text = run_cli(
            capsys, "stats", "run", "--figure", "fig04",
            "--seeds", "2",
        )
        assert code == 0
        assert "replication: 1 exhibits x 2 seeds" in text
        assert "fig04.browsing" in text


class TestValidateIntervalMode:
    def test_multi_seed_section_passes(self, capsys):
        code, text = run_cli(
            capsys, "validate", "--section", "fig04", "--seeds", "2"
        )
        assert code == 0
        assert "CI overlap over 2 seeds" in text

    def test_multi_seed_json_reports_ci(self, capsys):
        code, text = run_cli(
            capsys, "validate", "--section", "fig04",
            "--seeds", "2", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["drift"]["mode"] == "interval"
        anchor = payload["drift"]["anchors"][0]
        assert anchor["ci"]["n"] == 2
        assert {"lo", "hi", "tolerance"} <= set(anchor)

    def test_single_seed_json_stays_point_mode(self, capsys):
        code, text = run_cli(
            capsys, "validate", "--section", "fig04", "--json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["drift"]["mode"] == "point"
        assert "ci" not in payload["drift"]["anchors"][0]

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_nonpositive_seeds_rejected(self, capsys, seeds):
        code, text = run_cli(
            capsys, "validate", "--section", "fig04", "--seeds", seeds
        )
        assert code != 0
        assert "--seeds must be >= 1" in text

    def test_nonpositive_jobs_rejected(self, capsys):
        code, text = run_cli(
            capsys, "validate", "--section", "fig04", "--jobs", "0"
        )
        assert code != 0
        assert "--jobs must be >= 1" in text
