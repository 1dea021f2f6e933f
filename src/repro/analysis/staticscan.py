"""Static disk-scan analysis (the prior-work methodology).

The studies the paper improves on — Satyanarayanan's file-size survey and
Smith's migration study — scanned disks at a fixed point in time, so they
could only see files that *survived*: "the data were gathered as a series
of daily scans of the disk, so they do not include files whose lifetimes
were less than a day."  This module implements that older methodology
against our simulated disk, so the two can be compared directly: the
static size distribution (weighted by file count, one count per file) vs.
the paper's dynamic, per-access distribution of Figure 2 — and the
static method's blindness to the short-lived files of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..unixfs.filesystem import FileSystem
from ..unixfs.inode import FileType
from .cdf import Cdf

__all__ = ["StaticScan", "scan_disk"]


@dataclass
class StaticScan:
    """One point-in-time scan of the simulated disk."""

    scan_time: float
    file_count: int
    directory_count: int
    total_bytes: int
    size_cdf: Cdf
    age_cdf: Cdf  # seconds since last modification

    def render(self) -> str:
        return "\n".join(
            [
                f"Static scan at t={self.scan_time:.0f}s: "
                f"{self.file_count} files, {self.directory_count} dirs, "
                f"{self.total_bytes / 1e6:.1f} MB",
                f"  median file size: {self.size_cdf.median() / 1024:.1f} KB; "
                f"{100 * self.size_cdf.fraction_at_or_below(10 * 1024):.0f}% "
                f"of files <= 10 KB",
                f"  median data age: {self.age_cdf.median():.0f} s",
            ]
        )


def scan_disk(fs: FileSystem) -> StaticScan:
    """Scan every live inode, as the pre-1985 studies scanned real disks."""
    now = fs.now()
    sizes: list[float] = []
    ages: list[float] = []
    directories = 0
    for inode in fs.inodes.live_inodes():
        if inode.type is FileType.DIRECTORY:
            directories += 1
            continue
        if inode.nlink == 0:
            continue  # unlinked-but-open files are invisible to a scan
        sizes.append(float(inode.size))
        ages.append(max(0.0, now - inode.mtime))
    return StaticScan(
        scan_time=now,
        file_count=len(sizes),
        directory_count=directories,
        total_bytes=int(sum(sizes)),
        size_cdf=Cdf.from_samples(sizes),
        age_cdf=Cdf.from_samples(ages),
    )
