"""Tests for the repro-ac command-line interface."""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[2]


def _documented_commands():
    """Every ``repro-ac`` command line in CI, the README and docs/.

    CI lines are ``run:`` steps; Markdown lines sit in fenced code
    blocks.  Backslash continuations are joined, and shell comments and
    redirections dropped, leaving the argument vector after
    ``repro-ac``.
    """
    sources = [REPO / ".github" / "workflows" / "ci.yml", REPO / "README.md"]
    sources += sorted((REPO / "docs").glob("*.md"))
    commands = []
    for path in sources:
        fenced = path.suffix != ".md"
        lines = iter(path.read_text(encoding="utf-8").splitlines())
        for line in lines:
            text = line.strip()
            if text.startswith("```"):
                fenced = not fenced
                continue
            if text.startswith("run:"):
                text = text[len("run:"):].strip()
            if not fenced or not text.startswith("repro-ac "):
                continue
            while text.endswith("\\"):
                text = text[:-1] + next(lines).strip()
            argv = []
            for token in shlex.split(text, comments=True)[1:]:
                if token in (">", "|", "&&", ";"):
                    break
                argv.append(token)
            commands.append(pytest.param(argv, id=f"{path.name}:{' '.join(argv)}"))
    return commands


class TestParser:
    def test_every_figure_is_a_subcommand(self):
        parser = build_parser()
        for fid in ("fig13", "fig18", "fig23", "abl_pfac"):
            args = parser.parse_args([fid])
            assert args.command == fid

    def test_figure_options(self):
        args = build_parser().parse_args(
            ["fig18", "--sizes", "1MB,10MB", "--patterns", "100", "--csv"]
        )
        assert args.sizes == ["1MB", "10MB"]
        assert args.patterns == [100]
        assert args.csv

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestNoAbbreviations:
    """Long options are spelled out in full: argparse's prefix matching
    would read ``--patterns x`` as ``--patterns-file x``."""

    def test_prefix_is_not_read_as_the_file_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["match", "--patterns", "x", "--text", "y"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "required: --patterns-file, --text-file" in err

    def test_prefix_is_an_unrecognized_argument(self, tmp_path, capsys):
        pats = tmp_path / "p.txt"
        pats.write_text("he\nshe\n")
        text = tmp_path / "t.bin"
        text.write_bytes(b"ushers")
        with pytest.raises(SystemExit) as exc:
            main(["match", "--patterns-file", str(pats), "--text-file",
                  str(text), "--kern", "global"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kern global" in capsys.readouterr().err

    def test_top_level_parser_rejects_prefixes(self):
        parser = build_parser()
        assert not parser.allow_abbrev
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        assert not any(p.allow_abbrev for p in sub.choices.values())

    @pytest.mark.parametrize("argv", _documented_commands())
    def test_documented_command_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_documented_commands_found(self):
        ids = [p.id for p in _documented_commands()]
        assert any(i.startswith("ci.yml:hotswap") for i in ids)
        assert any(i.startswith("README.md:match") for i in ids)
        assert any(i.startswith("TUTORIAL.md:") for i in ids)


class TestCommands:
    def test_device(self, capsys):
        assert main(["device"]) == 0
        out = capsys.readouterr().out
        assert "GTX 285" in out

    def test_figure_run_small(self, capsys):
        rc = main(
            ["fig16", "--sizes", "50KB", "--patterns", "100",
             "--scale", "0.001"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "Gbps" in out

    def test_figure_csv(self, capsys):
        rc = main(
            ["fig16", "--sizes", "50KB", "--patterns", "100",
             "--scale", "0.001", "--csv"]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("size,100")

    def test_match_command(self, tmp_path, capsys):
        pat = tmp_path / "patterns.txt"
        pat.write_text("he\nshe\nhis\nhers\n")
        txt = tmp_path / "input.bin"
        txt.write_bytes(b"ushers " * 100)
        rc = main(
            ["match", "--patterns-file", str(pat), "--text-file", str(txt)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "matches       : 300" in out
        assert "Gbps" in out

    def test_export_command(self, tmp_path, capsys):
        rc = main(
            ["export", "--outdir", str(tmp_path / "csv"),
             "--sizes", "50KB", "--patterns", "100", "--scale", "0.001"]
        )
        assert rc == 0
        written = sorted(p.name for p in (tmp_path / "csv").glob("*.csv"))
        assert written == [
            "fig13.csv", "fig14.csv", "fig15.csv", "fig16.csv",
            "fig17.csv", "fig18.csv", "fig20.csv", "fig21.csv",
            "fig22.csv", "fig23.csv",
        ]
        body = (tmp_path / "csv" / "fig18.csv").read_text()
        assert body.startswith("size,100")

    def test_occupancy_command(self, capsys):
        rc = main(
            ["occupancy", "--patterns", "100", "--size", "50KB",
             "--scale", "0.001"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "warps/SM" in out and "best:" in out

    def test_validate_command(self, capsys):
        assert main(["validate", "--iters", "100"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_compress_command(self, capsys):
        assert main(["compress", "--patterns", "100"]) == 0
        out = capsys.readouterr().out
        assert "banded exact: True" in out
        assert "bitmap exact: True" in out

    def test_dot_command(self, tmp_path, capsys):
        pat = tmp_path / "p.txt"
        pat.write_text("he\nshe\n")
        assert main(["dot", "--patterns-file", str(pat)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph ac {")

    def test_figure_chart_flag(self, capsys):
        rc = main(
            ["fig16", "--sizes", "50KB", "--patterns", "100",
             "--scale", "0.001", "--chart"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- 100 patterns --" in out
        assert "trends" in out

    def test_match_kernel_choice(self, tmp_path, capsys):
        pat = tmp_path / "p.txt"
        pat.write_text("ab\n")
        txt = tmp_path / "t.bin"
        txt.write_bytes(b"abab")
        rc = main(
            ["match", "--patterns-file", str(pat), "--text-file", str(txt),
             "--kernel", "pfac"]
        )
        assert rc == 0
        assert "pfac" in capsys.readouterr().out


@pytest.fixture
def data_files(tmp_path):
    pat = tmp_path / "patterns.txt"
    pat.write_text("he\nshe\nhis\nhers\n")
    txt = tmp_path / "input.bin"
    txt.write_bytes(b"He saw USHERS and hers ")
    return str(pat), str(txt)


class TestTraceFlag:
    def test_match_trace_prints_span_tree(self, data_files, capsys):
        pat, txt = data_files
        rc = main(
            ["match", "--patterns-file", pat, "--text-file", txt, "--trace"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("copy_input", "bind_texture", "kernel_body",
                     "ownership_filter"):
            assert name in out
        assert "ms]" in out  # rendered durations

    def test_match_without_trace_has_no_spans(self, data_files, capsys):
        pat, txt = data_files
        assert main(
            ["match", "--patterns-file", pat, "--text-file", txt]
        ) == 0
        assert "kernel_body" not in capsys.readouterr().out

    def test_resilient_match_trace(self, data_files, capsys):
        pat, txt = data_files
        rc = main(
            ["match", "--patterns-file", pat, "--text-file", txt,
             "--resilient", "--trace"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resilient_scan" in out
        assert "attempt" in out


class TestStatsCommand:
    def test_json_reconciles_with_scan(self, data_files, capsys):
        import json

        pat, txt = data_files
        rc = main(
            ["stats", "--patterns-file", pat, "--text-file", txt,
             "--backend", "gpu", "--case-insensitive", "--format", "json"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        from repro.matcher import Matcher

        with open(pat) as fh:
            patterns = [l.strip() for l in fh if l.strip()]
        with open(txt, "rb") as fh:
            expected = Matcher(patterns, case_insensitive=True).scan(
                fh.read()
            )
        (series,) = doc["scan_matches_total"]["series"]
        assert series["value"] == len(expected)
        assert doc["scans_total"]["series"][0]["value"] == 1

    def test_prometheus_output(self, data_files, capsys):
        pat, txt = data_files
        rc = main(
            ["stats", "--patterns-file", pat, "--text-file", txt,
             "--backend", "serial", "--format", "prometheus"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE scans_total counter" in out
        assert 'scans_total{backend="serial"} 1' in out
        assert "scan_seconds_bucket" in out

    def test_serial_mt_backend_with_workers(self, data_files, capsys):
        pat, txt = data_files
        rc = main(
            ["stats", "--patterns-file", pat, "--text-file", txt,
             "--backend", "serial_mt", "--workers", "2",
             "--format", "prometheus"]
        )
        assert rc == 0
        assert 'scans_total{backend="serial_mt"} 1' in capsys.readouterr().out

    def test_resilient_stats(self, data_files, capsys):
        pat, txt = data_files
        rc = main(
            ["stats", "--patterns-file", pat, "--text-file", txt,
             "--resilient", "--format", "prometheus"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert 'scans_total{backend="gpu"} 1' in captured.out
        assert "backend=gpu" in captured.err


class TestInputFiles:
    """A file the CLI cannot read is an argument error, not a crash."""

    @pytest.mark.parametrize("command", ["match", "stats", "profile"])
    @pytest.mark.parametrize("missing", ["patterns", "text"])
    def test_missing_file_exits_2(
        self, data_files, tmp_path, capsys, command, missing
    ):
        pat, txt = data_files
        gone = str(tmp_path / "gone.txt")
        if missing == "patterns":
            pat = gone
        else:
            txt = gone
        rc = main([command, "--patterns-file", pat, "--text-file", txt])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith("error:") and "gone.txt" in out

    def test_dot_missing_patterns_file_exits_2(self, tmp_path, capsys):
        rc = main(["dot", "--patterns-file", str(tmp_path / "gone.txt")])
        assert rc == 2
        assert capsys.readouterr().out.startswith("error:")


class TestBenchCommand:
    def test_writes_validated_document(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_pr.json"
        rc = main(
            ["bench", "--figures", "fig13,fig18", "--sizes", "1MB",
             "--patterns", "100", "--scale", "0.002",
             "--out", str(out_path)]
        )
        assert rc == 0
        from repro.obs import validate_bench_document

        doc = json.loads(out_path.read_text())
        validate_bench_document(doc)
        assert doc["schema"] == "repro-ac/bench-cells"
        assert len(doc["cells"]) == 2
        assert doc["config"]["scale"] == 0.002
        assert "wrote" in capsys.readouterr().out

    def test_unknown_figure_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--figures", "fig99",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--figures" in err and "fig99" in err
        assert not (tmp_path / "x.json").exists()

    def test_schema_drift_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        import repro.obs.collector as collector_mod
        from repro.errors import SchemaError

        def drifted(doc):
            raise SchemaError("cells[0].n_states: expected int")

        monkeypatch.setattr(collector_mod, "validate_bench_document", drifted)
        out_path = tmp_path / "BENCH_drift.json"
        rc = main(
            ["bench", "--figures", "fig13", "--sizes", "50KB",
             "--patterns", "100", "--scale", "0.001",
             "--out", str(out_path)]
        )
        assert rc == 1
        assert "FAIL: schema drift: cells[0].n_states" in capsys.readouterr().out
        assert not out_path.exists()

    def test_fig13_cells_carry_both_cpu_baselines(self, tmp_path):
        """fig13/fig18 cells commit with non-null serial_mt slots."""
        import json

        out_path = tmp_path / "BENCH_mt.json"
        rc = main(
            ["bench", "--figures", "fig13", "--sizes", "1MB",
             "--patterns", "100", "--scale", "0.002",
             "--out", str(out_path)]
        )
        assert rc == 0
        doc = json.loads(out_path.read_text())
        for cell in doc["cells"]:
            assert cell["serial"] is not None
            assert cell["serial_mt"] is not None
            assert cell["serial_mt"]["workers"] == 4
            assert cell["serial_mt"]["seconds"] < cell["serial"]["seconds"]


class TestCompressbenchCommand:
    def test_failed_ratio_gate_still_writes_the_document(self, tmp_path, capsys):
        import json

        from repro.obs import validate_bench_document

        out_path = tmp_path / "BENCH_compress.json"
        rc = main(
            ["compressbench", "--patterns", "200", "--gate-patterns", "200",
             "--backends", "compact,banded", "--min-ratio", "1000",
             "--out", str(out_path)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL: gate: best compressed ratio @ 200 patterns" in out
        doc = json.loads(out_path.read_text())
        validate_bench_document(doc)
        assert [c["size_label"] for c in doc["cells"]] == [
            "snortc200_compact", "snortc200_banded",
        ]


#: Malformed lists and ranges, each with the flag its usage error names.
MALFORMED = [
    ("fig13 --patterns 1x", "--patterns"),
    ("fig13 --sizes 3MB", "--sizes"),
    ("export --outdir {tmp} --sizes 3MB", "--sizes"),
    ("bench --sizes 3MB", "--sizes"),
    ("compressbench --patterns 5k", "--patterns"),
    ("compressbench --backends dense,foo", "--backends"),
    ("paperscale --size 300MB", "--size"),
    ("cpubench --size 3MB", "--size"),
    ("occupancy --size 3MB", "--size"),
    ("profile --size 3MB", "--size"),
    ("calibrate --scale 0", "--scale"),
    ("cpubench --workers -1", "--workers"),
    ("cpubench --repeats 0", "--repeats"),
    ("serve --patterns 0", "--patterns"),
    ("serve --text-bytes 0", "--text-bytes"),
    ("occupancy --patterns 0", "--patterns"),
    ("slo --text-bytes 0", "--text-bytes"),
    ("hotswap --repeats 0", "--repeats"),
    ("validate --iters 0", "--iters"),
]


class TestMalformedInput:
    """A malformed list or range is a usage error before any work runs:
    exit 2, one message naming the flag, and no traceback."""

    @pytest.mark.parametrize(
        "argv, flag", MALFORMED, ids=[argv for argv, _ in MALFORMED]
    )
    def test_usage_error_names_the_flag(self, tmp_path, capsys, argv, flag):
        outdir = tmp_path / "csv"
        with pytest.raises(SystemExit) as exc:
            main(shlex.split(argv.format(tmp=outdir)))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        (message,) = [line for line in err.splitlines() if "error:" in line]
        assert f"argument {flag}:" in message
        assert not outdir.exists()


class TestCpubenchCommand:
    def test_smoke_reports_measured_and_modeled(self, capsys):
        rc = main(
            ["cpubench", "--size", "1MB", "--patterns", "100",
             "--scale", "0.01", "--workers", "2", "--repeats", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured:" in out and "modeled:" in out

    def test_min_speedup_gate_fails(self, capsys):
        # An absurd bar guarantees the gate trips on any host.
        rc = main(
            ["cpubench", "--size", "1MB", "--patterns", "100",
             "--scale", "0.01", "--workers", "1", "--repeats", "1",
             "--min-speedup", "1000"]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestPaperscaleCommand:
    def test_small_cell(self, tmp_path, capsys):
        import json

        out = tmp_path / "paperscale.json"
        rc = main(
            [
                "paperscale", "--size", "50KB", "--patterns", "20",
                "--kernels", "serial,shared", "--scale", "0.01",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["wall_clock"]["grid_seconds"] >= 0.0
        assert len(doc["cells"]) == 1
        stdout = capsys.readouterr().out
        assert "paperscale" in stdout and "shared" in stdout

    def test_budget_violation_fails(self, tmp_path):
        rc = main(
            [
                "paperscale", "--size", "50KB", "--patterns", "20",
                "--kernels", "serial", "--scale", "0.01", "--seed", "7",
                "--out", str(tmp_path / "o.json"),
                "--budget-seconds", "0.000001",
            ]
        )
        assert rc != 0
