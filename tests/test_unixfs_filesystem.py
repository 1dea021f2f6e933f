"""Tests for the syscall layer (repro.unixfs.filesystem)."""

import pytest

from repro.clock import Clock
from repro.trace.records import AccessMode, OpenEvent
from repro.unixfs.content import MemoryContentStore
from repro.unixfs.errors import (
    EBADF,
    EEXIST,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
)
from repro.unixfs.filesystem import FileSystem, Whence
from repro.unixfs.inode import FileType
from repro.unixfs.tracer import KernelTracer


class TestDirectories:
    def test_mkdir_and_listdir(self, fs):
        fs.mkdir("/usr")
        fs.mkdir("/usr/bin")
        assert fs.listdir("/") == ["usr"]
        assert fs.listdir("/usr") == ["bin"]

    def test_mkdir_missing_parent_fails(self, fs):
        with pytest.raises(ENOENT):
            fs.mkdir("/a/b")

    def test_mkdir_duplicate_fails(self, fs):
        fs.mkdir("/a")
        with pytest.raises(EEXIST):
            fs.mkdir("/a")

    def test_makedirs_creates_chain_idempotently(self, fs):
        fs.makedirs("/a/b/c")
        fs.makedirs("/a/b/c")
        assert fs.stat("/a/b/c").is_dir

    def test_rmdir_empty(self, fs):
        fs.mkdir("/a")
        fs.rmdir("/a")
        assert not fs.exists("/a")

    def test_rmdir_non_empty_fails(self, fs):
        fs.makedirs("/a/b")
        with pytest.raises(ENOTEMPTY):
            fs.rmdir("/a")

    def test_rmdir_root_fails(self, fs):
        with pytest.raises(EINVAL):
            fs.rmdir("/")

    def test_rmdir_on_file_fails(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.close(fd)
        with pytest.raises(ENOTDIR):
            fs.rmdir("/f")

    def test_listdir_on_file_fails(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.close(fd)
        with pytest.raises(ENOTDIR):
            fs.listdir("/f")

    def test_path_through_file_fails(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.close(fd)
        with pytest.raises(ENOTDIR):
            fs.open("/f/x", AccessMode.READ)


class TestOpenCloseReadWrite:
    def test_open_missing_without_create_fails(self, fs):
        with pytest.raises(ENOENT):
            fs.open("/nope", AccessMode.READ)

    def test_create_write_read_back(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, b"hello world")
        fs.close(fd)
        fd = fs.open("/f", AccessMode.READ)
        assert fs.read(fd, 100) == b"hello world"
        fs.close(fd)

    def test_read_advances_offset(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, b"abcdef")
        fs.close(fd)
        fd = fs.open("/f", AccessMode.READ)
        assert fs.read(fd, 3) == b"abc"
        assert fs.read(fd, 3) == b"def"
        assert fs.read(fd, 3) == b""
        fs.close(fd)

    def test_write_by_count_tracks_size_only(self, clock):
        fs = FileSystem(clock=clock)  # null content store
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, 10_000)
        fs.close(fd)
        assert fs.stat("/f").size == 10_000

    def test_read_on_write_only_fd_fails(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        with pytest.raises(EBADF):
            fs.read(fd, 1)
        fs.close(fd)

    def test_write_on_read_only_fd_fails(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.close(fd)
        fd = fs.open("/f", AccessMode.READ)
        with pytest.raises(EBADF):
            fs.write(fd, b"x")
        fs.close(fd)

    def test_closed_fd_rejected(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.close(fd)
        with pytest.raises(EBADF):
            fs.close(fd)
        with pytest.raises(EBADF):
            fs.write(fd, b"x")

    def test_open_truncate_discards_content(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, b"old data")
        fs.close(fd)
        fd = fs.open("/f", AccessMode.WRITE, truncate=True)
        fs.close(fd)
        assert fs.stat("/f").size == 0

    def test_truncate_requires_writable_mode(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.close(fd)
        with pytest.raises(EINVAL):
            fs.open("/f", AccessMode.READ, truncate=True)

    def test_append_starts_at_end(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, b"12345")
        fs.close(fd)
        fd = fs.open("/f", AccessMode.WRITE, append=True)
        fs.write(fd, b"678")
        fs.close(fd)
        assert fs.stat("/f").size == 8

    def test_creat_truncates_and_opens_write(self, fs):
        fd = fs.creat("/f")
        fs.write(fd, b"abc")
        fs.close(fd)
        fd2 = fs.creat("/f")
        fs.close(fd2)
        assert fs.stat("/f").size == 0

    def test_open_directory_for_write_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(EISDIR):
            fs.open("/d", AccessMode.WRITE)

    def test_sparse_write_extends_with_zeros(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.lseek(fd, 100)
        fs.write(fd, b"x")
        fs.close(fd)
        assert fs.stat("/f").size == 101
        fd = fs.open("/f", AccessMode.READ)
        data = fs.read(fd, 101)
        assert data[:100] == b"\x00" * 100
        assert data[100:] == b"x"
        fs.close(fd)


class TestSeek:
    def test_seek_set_cur_end(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, b"0123456789")
        assert fs.lseek(fd, 2) == 2
        assert fs.lseek(fd, 3, Whence.CUR) == 5
        assert fs.lseek(fd, -1, Whence.END) == 9
        fs.close(fd)

    def test_negative_seek_rejected(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        with pytest.raises(EINVAL):
            fs.lseek(fd, -5)
        fs.close(fd)


class TestUnlinkTruncateRename:
    def test_unlink_removes_file(self, fs):
        fd = fs.creat("/f")
        fs.close(fd)
        fs.unlink("/f")
        assert not fs.exists("/f")

    def test_unlink_directory_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(EISDIR):
            fs.unlink("/d")

    def test_unlinked_open_file_still_usable(self, fs):
        fd = fs.open("/f", AccessMode.READ_WRITE, create=True)
        fs.write(fd, b"data")
        fs.unlink("/f")
        assert not fs.exists("/f")
        fs.lseek(fd, 0)
        assert fs.read(fd, 4) == b"data"
        fs.close(fd)

    def test_unlinked_open_file_space_freed_at_close(self, fs):
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, 50_000)
        fs.unlink("/f")
        assert fs.allocated_bytes() > 0
        fs.close(fd)
        assert fs.allocated_bytes() == 0

    def test_truncate_shortens(self, fs):
        fd = fs.creat("/f")
        fs.write(fd, b"abcdefgh")
        fs.close(fd)
        fs.truncate("/f", 3)
        assert fs.stat("/f").size == 3

    def test_truncate_negative_rejected(self, fs):
        fd = fs.creat("/f")
        fs.close(fd)
        with pytest.raises(EINVAL):
            fs.truncate("/f", -2)

    def test_rename_preserves_file_id_and_content(self, fs):
        fd = fs.creat("/a")
        fs.write(fd, b"payload")
        fs.close(fd)
        before = fs.stat("/a").file_id
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.stat("/b").file_id == before
        fd = fs.open("/b", AccessMode.READ)
        assert fs.read(fd, 10) == b"payload"
        fs.close(fd)

    def test_rename_over_existing_replaces(self, fs):
        for name, data in (("/a", b"new"), ("/b", b"old")):
            fd = fs.creat(name)
            fs.write(fd, data)
            fs.close(fd)
        fs.rename("/a", "/b")
        fd = fs.open("/b", AccessMode.READ)
        assert fs.read(fd, 10) == b"new"
        fs.close(fd)
        assert not fs.exists("/a")


class TestExecAndStat:
    def test_execve_returns_stat(self, fs):
        fd = fs.creat("/bin_ls")
        fs.write(fd, b"x" * 1000)
        fs.close(fd)
        st = fs.execve("/bin_ls", uid=4)
        assert st.size == 1000

    def test_execve_directory_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(EISDIR):
            fs.execve("/d")

    def test_stat_reports_times(self, clock, fs):
        fd = fs.creat("/f")
        fs.close(fd)
        clock.advance(5.0)
        fs.truncate("/f", 0)
        st = fs.stat("/f")
        assert st.mtime == pytest.approx(5.0)
        assert st.ctime == pytest.approx(0.0)

    def test_stat_type_flags(self, fs):
        fs.mkdir("/d")
        fd = fs.creat("/f")
        fs.close(fd)
        assert fs.stat("/d").type is FileType.DIRECTORY
        assert fs.stat("/f").type is FileType.REGULAR


class TestAccountingAndCaches:
    def test_internal_fragmentation_positive_for_odd_sizes(self, fs):
        fd = fs.creat("/f")
        fs.write(fd, 5000)
        fs.close(fd)
        assert fs.logical_bytes() == 5000
        assert fs.allocated_bytes() == 5120  # 1 block + 1 frag
        assert fs.internal_fragmentation() == 120

    def test_buffer_cache_sees_traffic(self, fs):
        fd = fs.creat("/f")
        fs.write(fd, b"x" * 9000)
        fs.close(fd)
        assert fs.buffer_cache.stats.write_misses == 3

    def test_periodic_sync_runs(self, clock, fs):
        fd = fs.creat("/f")
        fs.write(fd, b"x" * 4096)
        fs.close(fd)
        clock.advance(31.0)
        fs.stat("/f")  # any syscall triggers the periodic sync check
        assert fs.buffer_cache.stats.writebacks >= 1

    def test_dnlc_warm_after_first_lookup(self, fs):
        fs.makedirs("/a/b")
        fd = fs.creat("/a/b/f")
        fs.close(fd)
        before = fs.resolver.dnlc.counters.hits
        fs.stat("/a/b/f")
        assert fs.resolver.dnlc.counters.hits >= before + 3

    def test_syscall_counts_recorded(self, fs):
        fd = fs.creat("/f")
        fs.write(fd, b"ab")
        fs.close(fd)
        assert fs.syscall_counts["creat"] == 1
        assert fs.syscall_counts["open"] == 1  # creat opens internally
        assert fs.syscall_counts["write"] == 1
        assert fs.syscall_counts["close"] == 1


class TestTracing:
    def test_open_event_flags_new_vs_truncated(self, clock):
        tracer = KernelTracer()
        fs = FileSystem(clock=clock, tracer=tracer)
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.close(fd)
        fd = fs.open("/f", AccessMode.WRITE, truncate=True)
        fs.close(fd)
        opens = [e for e in tracer.log if isinstance(e, OpenEvent)]
        assert opens[0].created and opens[0].new_file
        assert opens[1].created and not opens[1].new_file

    def test_no_events_for_read_write_calls(self, clock):
        tracer = KernelTracer()
        fs = FileSystem(clock=clock, tracer=tracer)
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, 1000)
        fs.write(fd, 1000)
        fs.close(fd)
        kinds = [e.kind for e in tracer.log]
        assert kinds == ["open", "close"]

    def test_seek_event_only_on_position_change(self, clock):
        tracer = KernelTracer()
        fs = FileSystem(clock=clock, tracer=tracer)
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.lseek(fd, 0)          # no-op: already at 0
        fs.write(fd, 100)
        fs.lseek(fd, 100)        # no-op: already at 100
        fs.lseek(fd, 40)         # real reposition
        fs.close(fd)
        seeks = tracer.log.of_kind("seek")
        assert len(seeks) == 1
        assert (seeks[0].prev_pos, seeks[0].new_pos) == (100, 40)

    def test_close_records_final_position(self, clock):
        tracer = KernelTracer()
        fs = FileSystem(clock=clock, tracer=tracer)
        fd = fs.open("/f", AccessMode.WRITE, create=True)
        fs.write(fd, 777)
        fs.close(fd)
        assert tracer.log.of_kind("close")[0].final_pos == 777

    def test_trace_times_quantized_and_monotonic(self, clock):
        tracer = KernelTracer()
        fs = FileSystem(clock=clock, tracer=tracer)
        for i in range(5):
            clock.advance(0.003)  # sub-tick steps
            fd = fs.open(f"/f{i}", AccessMode.WRITE, create=True)
            fs.close(fd)
        times = [e.time for e in tracer.log]
        assert times == sorted(times)
        for t in times:
            assert abs(t * 100 - round(t * 100)) < 1e-9


class TestClockForms:
    """A clock is a Clock, any zero-argument callable, or an object with a
    ``now()``; ``fs.now`` reads each, and syscalls stamp with it."""

    class _NowOnly:
        def __init__(self):
            self.t = 0.0

        def now(self):
            return self.t

    def test_each_form_is_read(self):
        times = {"t": 0.0}
        clock, now_only = Clock(), self._NowOnly()
        for source, advance in (
            (clock, lambda: clock.advance(3.0)),
            (lambda: times["t"], lambda: times.update(t=3.0)),
            (now_only, lambda: setattr(now_only, "t", 3.0)),
        ):
            tracer = KernelTracer()
            fs = FileSystem(clock=source, tracer=tracer)
            assert fs.now() == 0.0
            advance()
            assert fs.now() == 3.0
            fd = fs.open("/f", AccessMode.WRITE, create=True)
            fs.close(fd)
            assert [e.time for e in tracer.log] == [3.0, 3.0]
            assert fs.stat("/f").ctime == 3.0
