"""Tests for the strace parser and converter."""

import io
import textwrap

import pytest

from repro.analysis.accesses import reconstruct_accesses
from repro.strace.convert import convert_calls, convert_file
from repro.strace.parser import StraceCall, parse_lines
from repro.trace.records import AccessMode
from repro.trace.validate import validate

SAMPLE = textwrap.dedent("""\
    1000 1688912345.100000 execve("/bin/cat", ["cat", "f.txt"], 0x7ffd /* 20 vars */) = 0
    1000 1688912345.200000 openat(AT_FDCWD, "/etc/passwd", O_RDONLY|O_CLOEXEC) = 3
    1000 1688912345.210000 read(3, "root:x:0:0"..., 4096) = 2000
    1000 1688912345.220000 read(3, "", 4096) = 0
    1000 1688912345.230000 close(3) = 0
    1000 1688912345.300000 openat(AT_FDCWD, "/tmp/out", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 4
    1000 1688912345.310000 write(4, "hello"..., 5000) = 5000
    1000 1688912345.320000 lseek(4, 1000, SEEK_SET) = 1000
    1000 1688912345.330000 write(4, "x"..., 100) = 100
    1000 1688912345.340000 close(4) = 0
    1000 1688912345.400000 unlink("/tmp/out") = 0
    1000 1688912345.500000 openat(AT_FDCWD, "/gone", O_RDONLY) = -1 ENOENT (No such file)
""")


class TestParser:
    def test_parses_all_good_lines(self):
        calls = list(parse_lines(io.StringIO(SAMPLE)))
        assert len(calls) == 12
        assert calls[0].name == "execve"
        assert calls[0].pid == 1000

    def test_path_and_int_args(self):
        calls = list(parse_lines(io.StringIO(SAMPLE)))
        openat = calls[1]
        assert openat.path_arg(0) == "/etc/passwd"
        read = calls[2]
        assert read.int_arg(0) == 3
        assert read.retval == 2000

    def test_failed_call_retval_negative(self):
        calls = list(parse_lines(io.StringIO(SAMPLE)))
        assert calls[-1].retval == -1

    def test_unfinished_resumed_stitched(self):
        text = (
            "7 100.000000 read(5,  <unfinished ...>\n"
            "8 100.000500 write(1, \"x\", 1) = 1\n"
            "7 100.001000 <... read resumed>\"data\", 4096) = 4\n"
        )
        calls = list(parse_lines(io.StringIO(text)))
        names = [(c.pid, c.name, c.retval) for c in calls]
        assert (8, "write", 1) in names
        assert (7, "read", 4) in names
        read = next(c for c in calls if c.name == "read")
        assert read.time == pytest.approx(100.0)  # call start time

    def test_junk_lines_skipped(self):
        text = (
            "--- SIGCHLD {si_signo=SIGCHLD} ---\n"
            "1 1.0 exit_group(0) = ?\n"
            "+++ exited with 0 +++\n"
            "1 2.000000 stat(\"/x\", {...}) = 0\n"  # uninteresting syscall
        )
        assert list(parse_lines(io.StringIO(text))) == []

    def test_no_pid_prefix_ok(self):
        text = '1688912345.100000 openat(AT_FDCWD, "/f", O_RDONLY) = 3\n'
        (call,) = parse_lines(io.StringIO(text))
        assert call.pid == 0
        assert call.name == "openat"


class TestConverter:
    def _convert(self, text=SAMPLE):
        return convert_calls(parse_lines(io.StringIO(text)), name="t")

    def test_trace_validates(self):
        log, _stats = self._convert()
        assert validate(log).ok

    def test_event_mix(self):
        log, _stats = self._convert()
        assert log.count("open") + log.count("create") == 2
        assert log.count("close") == 2
        assert log.count("seek") == 1
        assert log.count("unlink") == 1
        assert log.count("exec") == 1

    def test_failed_open_skipped(self):
        log, stats = self._convert()
        opens = log.of_kind("open")
        assert all(e.size >= 0 for e in opens)
        assert stats.skipped >= 1

    def test_read_positions_folded(self):
        log, stats = self._convert()
        accesses = reconstruct_accesses(log)
        passwd = next(a for a in accesses if a.mode is AccessMode.READ)
        assert passwd.bytes_transferred == 2000  # EOF read did not advance
        assert stats.reads_folded == 2

    def test_write_with_seek_reconstructs_runs(self):
        log, _stats = self._convert()
        accesses = reconstruct_accesses(log)
        out = next(a for a in accesses if a.mode is AccessMode.WRITE)
        assert out.created and out.new_file
        assert out.seeks == 1
        assert len(out.runs) == 2
        assert out.runs[0].length == 5000
        assert out.runs[1].length == 100

    def test_times_rebased_to_zero(self):
        log, _stats = self._convert()
        assert log.start_time == pytest.approx(0.0)

    def test_recreate_after_unlink_gets_new_file_id(self):
        text = (
            '1 1.000000 openat(AT_FDCWD, "/f", O_WRONLY|O_CREAT) = 3\n'
            "1 1.100000 close(3) = 0\n"
            '1 1.200000 unlink("/f") = 0\n'
            '1 1.300000 openat(AT_FDCWD, "/f", O_WRONLY|O_CREAT) = 3\n'
            "1 1.400000 close(3) = 0\n"
        )
        log, _stats = convert_calls(parse_lines(io.StringIO(text)))
        opens = log.of_kind("open")
        unlink = log.of_kind("unlink")[0]
        assert opens[0].file_id == unlink.file_id
        assert opens[1].file_id != opens[0].file_id

    def test_append_open_starts_at_known_size(self):
        text = (
            '1 1.000000 openat(AT_FDCWD, "/log", O_WRONLY|O_CREAT) = 3\n'
            '1 1.100000 write(3, "x", 100) = 100\n'
            "1 1.200000 close(3) = 0\n"
            '1 1.300000 openat(AT_FDCWD, "/log", O_WRONLY|O_APPEND) = 3\n'
            '1 1.400000 write(3, "y", 50) = 50\n'
            "1 1.500000 close(3) = 0\n"
        )
        log, _stats = convert_calls(parse_lines(io.StringIO(text)))
        second = log.of_kind("open")[1]
        assert second.initial_pos == 100
        closes = log.of_kind("close")
        assert closes[1].final_pos == 150

    def test_dangling_fds_closed_at_end(self):
        text = '1 1.000000 openat(AT_FDCWD, "/f", O_RDONLY) = 3\n'
        log, _stats = convert_calls(parse_lines(io.StringIO(text)))
        assert log.count("close") == 1

    def test_ftruncate_maps_to_file(self):
        text = (
            '1 1.000000 openat(AT_FDCWD, "/f", O_RDWR|O_CREAT) = 3\n'
            '1 1.100000 write(3, "x", 100) = 100\n'
            "1 1.200000 ftruncate(3, 0) = 0\n"
            "1 1.300000 close(3) = 0\n"
        )
        log, _stats = convert_calls(parse_lines(io.StringIO(text)))
        trunc = log.of_kind("trunc")[0]
        assert trunc.new_length == 0
        assert trunc.file_id == log.of_kind("open")[0].file_id

    @pytest.mark.parametrize(
        "line",
        [
            "1 1.200000 ftruncate(3, 18446744073709551616) = 0",
            '1 1.200000 truncate("/f", -9223372036854775809) = 0',
            "1 1.200000 lseek(3, 0, SEEK_END) = 9223372036854775808",
            '18446744073709551616 1.200000 openat(AT_FDCWD, "/g", O_RDONLY) = 5',
        ],
    )
    def test_integer_past_int64_skips_the_call(self, line):
        # A call whose return value or integer argument fits no trace row
        # is skipped: it must not become a wrong event (a truncate to 0,
        # say, from an unreadable length).
        text = (
            '1 1.000000 openat(AT_FDCWD, "/f", O_RDWR|O_CREAT) = 3\n'
            '1 1.100000 write(3, "x", 100) = 100\n'
            f"{line}\n"
            "1 1.300000 close(3) = 0\n"
        )
        log, stats = convert_calls(parse_lines(io.StringIO(text)))
        assert [type(e).__name__ for e in log.events] == ["OpenEvent", "CloseEvent"]
        assert log.of_kind("close")[0].final_pos == 100
        assert stats.skipped == 1
        assert validate(log).ok

    def test_position_past_int64_skips_the_read(self):
        # Each of the two reads fits, but the position they reach does not.
        text = (
            '1 1.000000 openat(AT_FDCWD, "/f", O_RDONLY) = 3\n'
            "1 1.100000 lseek(3, 9223372036854775800, SEEK_SET) = 9223372036854775800\n"
            '1 1.200000 read(3, "x", 4096) = 4096\n'
            "1 1.300000 close(3) = 0\n"
        )
        log, stats = convert_calls(parse_lines(io.StringIO(text)))
        assert stats.skipped == 1 and stats.reads_folded == 0
        assert log.of_kind("close")[0].final_pos == 9223372036854775800
        assert validate(log).ok

    def test_convert_file_from_disk(self, tmp_path):
        path = tmp_path / "s.log"
        path.write_text(SAMPLE)
        log, stats = convert_file(str(path))
        assert len(log) > 0
        assert stats.calls == 12


class TestRenameAndDup:
    def test_rename_carries_file_identity(self):
        text = (
            '1 1.000000 openat(AT_FDCWD, "/tmp/x", O_WRONLY|O_CREAT) = 3\n'
            '1 1.100000 write(3, "d", 500) = 500\n'
            "1 1.200000 close(3) = 0\n"
            '1 1.300000 rename("/tmp/x", "/final") = 0\n'
            '1 1.400000 openat(AT_FDCWD, "/final", O_RDONLY) = 3\n'
            '1 1.500000 read(3, "d", 500) = 500\n'
            "1 1.600000 close(3) = 0\n"
        )
        log, _ = convert_calls(parse_lines(io.StringIO(text)))
        opens = log.of_kind("open")
        assert opens[0].file_id == opens[1].file_id
        assert opens[1].size == 500  # size knowledge followed the rename

    def test_rename_while_fd_open_keeps_tracking(self):
        text = (
            '1 1.000000 openat(AT_FDCWD, "/a", O_WRONLY|O_CREAT) = 3\n'
            '1 1.100000 rename("/a", "/b") = 0\n'
            '1 1.200000 write(3, "d", 100) = 100\n'
            "1 1.300000 close(3) = 0\n"
        )
        log, _ = convert_calls(parse_lines(io.StringIO(text)))
        assert log.of_kind("close")[0].final_pos == 100

    def test_dup_shares_offset_and_closes_once(self):
        text = (
            '1 1.000000 openat(AT_FDCWD, "/f", O_WRONLY|O_CREAT) = 3\n'
            "1 1.100000 dup(3) = 4\n"
            '1 1.200000 write(3, "d", 100) = 100\n'
            "1 1.300000 close(3) = 0\n"
            '1 1.400000 write(4, "d", 50) = 50\n'
            "1 1.500000 close(4) = 0\n"
        )
        log, _ = convert_calls(parse_lines(io.StringIO(text)))
        assert log.count("open") + log.count("create") == 1
        closes = log.of_kind("close")
        assert len(closes) == 1
        assert closes[0].final_pos == 150

    def test_failed_rename_skipped(self):
        text = '1 1.000000 rename("/a", "/b") = -1 ENOENT (No such file)\n'
        log, stats = convert_calls(parse_lines(io.StringIO(text)))
        assert len(log) == 0
        assert stats.skipped == 1
