"""End-to-end tests for the repro-fs command-line interface."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.onepass import analyze_columns_python
from repro.cli.main import _render_onepass_section, main
from repro.corpus import (
    CorpusReader,
    CorpusSpool,
    pack_columns,
    pack_trace,
    read_corpus_columns,
)
from repro.fuzz.gen import random_trace
from repro.trace.columns import KIND_OPEN, TraceColumns
from repro.trace.io_text import read_text

from .conftest import append_rows


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "a5.trace"
    rc = main(["generate", "--profile", "A5", "--hours", "0.2",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return str(path)


class TestGenerate:
    def test_writes_readable_trace(self, trace_file):
        log = read_text(trace_file)
        assert len(log) > 100
        assert log.name == "A5"

    def test_binary_output_by_extension(self, tmp_path):
        out = tmp_path / "c4.bcorpus"
        rc = main(["generate", "--profile", "C4", "--hours", "0.1",
                   "--seed", "1", "-o", str(out)])
        assert rc == 0
        with CorpusReader(out) as reader:
            assert reader.name == "C4"

    def test_spool_streams_to_binary(self, tmp_path, capsys):
        out = tmp_path / "a5.bcorpus"
        rc = main(["generate", "--profile", "A5", "--hours", "0.05",
                   "--seed", "2", "-o", str(out), "--spool-buffer", "256"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "events spooled" in printed
        assert "peak 256 events resident" in printed
        with CorpusReader(out) as reader:
            assert len(reader) > 0
            assert reader.segment_events == 256

    def test_spool_output_matches_unspooled(self, tmp_path):
        # A .bcorpus output always spools; it is byte for byte the
        # in-memory trace packed with the same segment size.
        from repro.workload.generator import generate
        from repro.workload.profiles import PROFILES

        spooled = tmp_path / "s.bcorpus"
        direct = tmp_path / "d.bcorpus"
        assert main(["generate", "--profile", "A5", "--hours", "0.05",
                     "--seed", "2", "-o", str(spooled)]) == 0
        trace = generate(PROFILES["A5"], seed=2, duration=0.05 * 3600.0).trace
        pack_trace(trace, direct, segment_events=8192)
        assert spooled.read_bytes() == direct.read_bytes()

    def test_multi_seed_generates_one_file_per_seed(self, tmp_path):
        out = tmp_path / "many.bcorpus"
        rc = main(["generate", "--profile", "A5", "--hours", "0.05",
                   "--seed", "10", "--seeds", "3", "--jobs", "2",
                   "-o", str(out)])
        assert rc == 0
        for seed in (10, 11, 12):
            path = tmp_path / f"many-s{seed}.bcorpus"
            assert path.exists(), path
            with CorpusReader(path) as reader:
                assert reader.name == "A5"

    def test_multi_seed_seed_placeholder(self, tmp_path):
        template = tmp_path / "t{seed}.trace"
        rc = main(["generate", "--profile", "A5", "--hours", "0.05",
                   "--seeds", "2", "-o", str(template)])
        assert rc == 0
        assert read_text(str(tmp_path / "t0.trace")).name == "A5"
        assert read_text(str(tmp_path / "t1.trace")).name == "A5"


class TestReadOnlyCommands:
    def test_stats(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "Number of trace records" in out

    def test_validate_ok(self, trace_file, capsys):
        assert main(["validate", trace_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_trace_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("close\t1.00\t99\t0\n# end: 1 events\n")
        assert main(["validate", str(bad)]) == 1
        assert "unknown open_id" in capsys.readouterr().out

    def test_analyze_all(self, trace_file, capsys):
        assert main(["analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "Sequentiality" in out
        assert "throughput" in out

    def test_analyze_single_report(self, trace_file, capsys):
        assert main(["analyze", trace_file, "--report", "lifetimes"]) == 0
        assert "new files" in capsys.readouterr().out

    def test_closed_stdout_prints_no_traceback(self, tmp_path):
        # ``repro-fs stats a.bcorpus | head -1``: the reader of stdout
        # goes away before the output is flushed.
        path = tmp_path / "a.bcorpus"
        pack_trace(random_trace(random.Random("trace:pipe"), 200), path)
        src = str(Path(repro.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "stats", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


class TestSimulation:
    def test_simulate(self, trace_file, capsys):
        rc = main(["simulate", trace_file, "--cache-mb", "1",
                   "--policy", "delayed-write"])
        assert rc == 0
        assert "miss ratio" in capsys.readouterr().out

    def test_simulate_with_paging(self, trace_file, capsys):
        assert main(["simulate", trace_file, "--paging"]) == 0

    def test_sweep_policy(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "policy"]) == 0
        assert "write-through" in capsys.readouterr().out

    def test_sweep_blocksize(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "blocksize"]) == 0
        assert "No Cache" in capsys.readouterr().out

    def test_twolevel_flush_back_clients_flush(self, trace_file, capsys):
        # Clients see one item per run() call; a flush-back client must
        # still write its dirty blocks back every 30 s.
        flushed = _printed(
            capsys, ["twolevel", trace_file, "--client-policy", "flush-30s"]
        )
        assert flushed != _printed(
            capsys, ["twolevel", trace_file, "--client-policy", "delayed-write"]
        )


class TestExperiments:
    def test_single_experiment(self, trace_file, capsys):
        assert main(["experiment", trace_file, "--id", "table5"]) == 0
        assert "Sequentiality" in capsys.readouterr().out

    def test_missing_id_lists_options(self, trace_file, capsys):
        assert main(["experiment", trace_file]) == 2
        assert "table6" in capsys.readouterr().err

    def test_experiment_takes_no_policy(self, trace_file, capsys):
        # Exhibits run the paper's LRU; another policy's Table VI comes
        # from `sweep --policy`.
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", trace_file, "--id", "table6",
                  "--policy", "clock"])
        assert exit_info.value.code == 2
        assert "--policy" in capsys.readouterr().err


class TestConvertStrace:
    def test_convert(self, tmp_path, capsys):
        strace = tmp_path / "s.log"
        strace.write_text(textwrap.dedent("""\
            1 1.000000 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 3
            1 1.100000 read(3, "x", 4096) = 1000
            1 1.200000 close(3) = 0
        """))
        out = tmp_path / "out.trace"
        rc = main(["convert-strace", str(strace), "-o", str(out)])
        assert rc == 0
        log = read_text(str(out))
        assert log.count("open") == 1
        assert log.count("close") == 1


@pytest.fixture(scope="module")
def twin_traces(tmp_path_factory):
    """One generated trace as text and packed into a ``.bcorpus``
    (packing keeps the times the text reads back as, so the two files
    hold the same events to the last bit)."""
    root = tmp_path_factory.mktemp("twins")
    corpus, text = str(root / "t.bcorpus"), str(root / "t.trace")
    assert main(["generate", "--profile", "A5", "--hours", "0.1", "--seed", "5",
                 "-o", text]) == 0
    assert main(["corpus", "pack", text, "-o", corpus]) == 0
    return corpus, text


def _printed(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def _corpus_events(path) -> list:
    return read_corpus_columns(path).to_log().events


def _spoiled(src, dest, case: str) -> None:
    """Copy text trace *src* to *dest* with one record spoiled by *case*."""
    lines = Path(src).read_text().splitlines(keepends=True)
    rows = [
        (at, line.split("\t"))
        for at, line in enumerate(lines)
        if not line.startswith("#")
    ]

    def first(kind):
        return next(fields for _, fields in rows if fields[0] == kind)

    if case == "negative first time":
        rows[0][1][1] = "-5.00"
    elif case == "time going backwards":
        mid = len(rows) // 2
        rows[mid][1][1] = f"{float(rows[mid - 1][1][1]) - 1:.2f}"
    elif case == "seek on unknown open_id":
        first("seek")[2] = "999999"
    elif case == "size past 64 bits":
        first("open")[5] = str(2**64)
    for at, fields in rows:
        lines[at] = "\t".join(fields)
    Path(dest).write_text("".join(lines))


class TestBcorpusEverywhere:
    """Every command that takes or writes a trace file takes ``.bcorpus``:
    a corpus reads as the same trace its text twin holds, and a
    ``.bcorpus`` output is a corpus (not text under that name)."""

    def test_stats_reads_bcorpus(self, twin_traces, capsys):
        corpus, text = twin_traces
        assert _printed(capsys, ["stats", corpus]) == _printed(
            capsys, ["stats", text]
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--cache-mb", "1"],
            ["sweep", "--kind", "blocksize"],
            ["twolevel", "--client-kb", "256", "--server-mb", "2"],
            ["netfs", "--clients", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cache_commands_read_bcorpus(self, twin_traces, capsys, argv):
        corpus, text = twin_traces
        command, options = argv[0], argv[1:]
        assert _printed(capsys, [command, corpus, *options]) == _printed(
            capsys, [command, text, *options]
        )

    @pytest.mark.parametrize(
        "report",
        ["activity", "sequentiality", "opentimes", "sizes", "lifetimes",
         "users", "burstiness", "all"],
    )
    def test_analyze_reads_bcorpus(self, twin_traces, capsys, report):
        # Both formats print the same bytes, and those bytes are the
        # section of the per-module specification's report.
        corpus, text = twin_traces
        printed = _printed(capsys, ["analyze", text, "--report", report])
        assert _printed(capsys, ["analyze", corpus, "--report", report]) == printed
        spec = analyze_columns_python(TraceColumns.from_log(read_text(text)))
        assert printed == _render_onepass_section(spec, report) + "\n"

    def test_exhibit_commands_read_bcorpus(self, twin_traces, capsys, tmp_path):
        corpus, text = twin_traces
        assert _printed(capsys, ["experiment", corpus, "--id", "table5"]) == (
            _printed(capsys, ["experiment", text, "--id", "table5"])
        )
        for name, src in (("c", corpus), ("t", text)):
            _printed(capsys, ["report", src, "-o", str(tmp_path / f"{name}.md")])
            _printed(capsys, ["export-figures", src, "-d", str(tmp_path / name)])
        assert (tmp_path / "c.md").read_text() == (tmp_path / "t.md").read_text()
        figures = sorted(p.name for p in (tmp_path / "t").iterdir())
        assert figures
        for name in figures:
            assert (tmp_path / "c" / name).read_bytes() == (
                tmp_path / "t" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "case",
        [
            "clean",
            "negative first time",
            "time going backwards",
            "seek on unknown open_id",
        ],
    )
    def test_validate_gives_one_verdict(self, twin_traces, capsys, tmp_path, case):
        # Every trace is validated through its columns, so a text trace
        # and its packed copy print the same report and exit code.
        text, corpus = tmp_path / "v.trace", tmp_path / "v.bcorpus"
        _spoiled(twin_traces[1], text, case)
        _printed(capsys, ["corpus", "pack", str(text), "-o", str(corpus)])
        verdicts = []
        for path in (text, corpus):
            capsys.readouterr()
            verdicts.append((main(["validate", str(path)]), capsys.readouterr()))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] == (0 if case == "clean" else 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["slice", "{src}", "--start", "60", "--end", "300"],
            ["filter", "{src}", "--users", "1,2"],
            ["merge", "{src}", "{src}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_trace_edits_read_and_write_bcorpus(
        self, twin_traces, capsys, tmp_path, argv
    ):
        corpus, text = twin_traces
        out_c, out_t = tmp_path / "o.bcorpus", tmp_path / "o.trace"
        _printed(capsys, [a.format(src=corpus) for a in argv] + ["-o", str(out_c)])
        _printed(capsys, [a.format(src=text) for a in argv] + ["-o", str(out_t)])
        events = _corpus_events(out_c)
        assert events and events == read_text(str(out_t)).events
        capsys.readouterr()
        rc = main(["validate", str(out_c)])
        checked = capsys.readouterr().out
        assert (rc, checked) == (main(["validate", str(out_t)]),
                                 capsys.readouterr().out)

    def test_generate_and_convert_write_bcorpus(self, capsys, tmp_path):
        spooled, out = tmp_path / "s.bcorpus", tmp_path / "g.bcorpus"
        common = ["generate", "--profile", "A5", "--hours", "0.1", "--seed", "5"]
        _printed(capsys, [*common, "-o", str(spooled), "--spool-buffer", "256"])
        _printed(capsys, [*common, "-o", str(out)])
        assert _corpus_events(out) == _corpus_events(spooled)
        assert "OK" in _printed(capsys, ["validate", str(out)])

        strace = tmp_path / "s.log"
        strace.write_text(textwrap.dedent("""\
            1 1.000000 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 3
            1 1.100000 read(3, "x", 4096) = 1000
            1 1.200000 close(3) = 0
        """))
        converted = tmp_path / "strace.bcorpus"
        _printed(capsys, ["convert-strace", str(strace), "-o", str(converted)])
        kinds = [type(e).__name__ for e in _corpus_events(converted)]
        assert kinds == ["OpenEvent", "CloseEvent"]


class TestDamagedFiles:
    """A damaged trace file is one stderr line and exit 1, not a traceback."""

    @staticmethod
    def _one_line_error(capsys, argv) -> str:
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        return lines[0]

    def test_torn_bcorpus(self, tmp_path, capsys):
        path = tmp_path / "torn.bcorpus"
        spool = CorpusSpool(str(path), buffer_events=64)
        append_rows(spool, random_trace(random.Random("trace:torn"), 200))
        spool._writer._fh.flush()  # a segment reached the file; no close()
        try:
            for command in ("stats", "validate", "analyze"):
                line = self._one_line_error(capsys, [command, str(path)])
                assert line.startswith(f"repro-fs {command}: ")
                assert "does not end with" in line
        finally:
            spool._writer._fh.close()

    def test_integer_past_64_bits(self, twin_traces, tmp_path, capsys):
        # The corpus columns hold signed 64-bit integers; the text reader
        # rejects a wider field instead of letting a command overflow.
        path, out = tmp_path / "wide.trace", tmp_path / "wide.bcorpus"
        _spoiled(twin_traces[1], path, "size past 64 bits")
        for argv in (["validate"], ["analyze"], ["stats"], ["corpus", "pack"]):
            extra = ["-o", str(out)] if argv[0] == "corpus" else []
            line = self._one_line_error(capsys, [*argv, str(path), *extra])
            assert line.startswith(f"repro-fs {argv[0]}: malformed 'open' record")
        assert not out.exists()

    def test_row_naming_no_event(self, twin_traces, tmp_path, capsys):
        # A crc-valid corpus whose open row has no mode bits: validate
        # reports it, and a command that builds events names the row.
        cols = read_corpus_columns(twin_traces[0])
        row = cols.kinds.index(KIND_OPEN)
        flags = bytearray(cols.flags)
        flags[row] = 0
        cols.flags = bytes(flags)
        path = tmp_path / "nomode.bcorpus"
        pack_columns(cols, path)
        for command in ("analyze", "stats", "simulate"):
            line = self._one_line_error(capsys, [command, str(path)])
            assert line == (
                f"repro-fs {command}: row {row}: open flag byte 0x00 has no "
                "mode bits"
            )
        capsys.readouterr()
        assert main(["validate", str(path)]) == 1
        assert f"event {row}: open flag byte 0x00 has no mode bits" in (
            capsys.readouterr().out
        )

    def test_retired_binary_format(self, tmp_path, capsys):
        path = tmp_path / "old.btrace"
        path.write_bytes(b"BSDTRC\x00\x01\xff\xfe\x00\x01\x02")
        line = self._one_line_error(capsys, ["stats", str(path)])
        assert "not a text trace" in line
