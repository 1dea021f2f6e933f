"""The initial file tree the synthetic users work in.

Before any user activity, a Berkeley-style namespace is laid down: shared
command binaries in ``/bin`` and ``/usr/bin``, C headers in
``/usr/include``, libraries in ``/usr/lib``, the handful of ~1 MB
administrative files (network tables, the login log) that Figure 2 blames
for the large-file tail, per-user home directories with source trees,
documents and mailboxes, spool directories, and ``/tmp``.

The :class:`Namespace` object records the category of every pre-built file
so the application models can choose realistically (a compile reads *some
popular subset* of headers; the status daemons rewrite *their own* host
files; and so on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from ..trace.records import AccessMode
from ..unixfs.filesystem import FileSystem
from .distributions import bounded_lognormal, weighted_index, zipf_weights

__all__ = ["NamespaceConfig", "Namespace", "build_namespace"]


@dataclass(frozen=True)
class NamespaceConfig:
    """Knobs for the initial tree (defaults resemble a 1985 Berkeley VAX)."""

    n_users: int = 20
    commands: int = 80  # /bin + /usr/bin binaries
    headers: int = 40  # /usr/include
    libraries: int = 8  # /usr/lib
    admin_files: int = 4  # ~1 MB network tables / login logs
    passwd_size: int = 8 * 1024
    termcap_size: int = 100 * 1024
    hosts: int = 20  # per-host status files the daemons rewrite
    sources_per_user: int = 8
    docs_per_user: int = 5
    decks_per_user: int = 3  # CAD circuit decks (used by the cad profile)

    command_size_median: float = 24 * 1024
    header_size_median: float = 2 * 1024
    library_size_median: float = 80 * 1024
    admin_file_size: int = 1 * 1024 * 1024
    source_size_median: float = 4 * 1024
    doc_size_median: float = 6 * 1024
    deck_size_median: float = 60 * 1024


@dataclass
class Namespace:
    """Paths of the pre-built tree, grouped by role, plus popularity
    weights (kept as running sums, the form a weighted pick bisects)."""

    config: NamespaceConfig
    commands: list[str] = field(default_factory=list)
    headers: list[str] = field(default_factory=list)
    libraries: list[str] = field(default_factory=list)
    admin_files: list[str] = field(default_factory=list)
    etc_files: dict[str, str] = field(default_factory=dict)
    macros: list[str] = field(default_factory=list)
    admin_hotspots: dict[str, list[int]] = field(default_factory=dict)
    admin_hotspot_cum_weights: list[float] = field(default_factory=list)
    status_files: list[str] = field(default_factory=list)
    mailboxes: dict[int, str] = field(default_factory=dict)
    home_dirs: dict[int, str] = field(default_factory=dict)
    sources: dict[int, list[str]] = field(default_factory=dict)
    docs: dict[int, list[str]] = field(default_factory=dict)
    decks: dict[int, list[str]] = field(default_factory=dict)
    command_cum_weights: list[float] = field(default_factory=list)
    header_cum_weights: list[float] = field(default_factory=list)

    def pick_admin_offset(self, rng: random.Random, path: str) -> int:
        """A lookup offset in an administrative file.

        Lookups concentrate on popular entries (the same hosts and users
        come up again and again), so offsets are drawn Zipf-style from a
        fixed set of hotspots — this is the read locality that lets even
        the 1 MB network tables cache well (Section 6).
        """
        spots = self.admin_hotspots[path]
        return spots[weighted_index(rng, self.admin_hotspot_cum_weights)]

    def pick_command(self, rng: random.Random) -> str:
        return self.commands[weighted_index(rng, self.command_cum_weights)]

    def pick_headers(self, rng: random.Random, count: int) -> list[str]:
        """A compile's header set: popular headers repeat across compiles."""
        count = min(count, len(self.headers))
        picked: list[str] = []
        seen: set[str] = set()
        while len(picked) < count:
            h = self.headers[weighted_index(rng, self.header_cum_weights)]
            if h not in seen:
                seen.add(h)
                picked.append(h)
        return picked

    def tmp_path(self, uid: int, tag: str, serial: int) -> str:
        return f"/tmp/{tag}{uid}_{serial}"

    def spool_path(self, serial: int) -> str:
        return f"/usr/spool/lpd/df{serial:06d}"


def _size(rng: random.Random, median: float, sigma: float = 1.0,
          low: float = 64, high: float = 10 * 1024 * 1024) -> int:
    return int(bounded_lognormal(rng, median, sigma, low, high))


def build_namespace(
    fs: FileSystem, config: NamespaceConfig, rng: random.Random
) -> Namespace:
    """Populate *fs* with the initial tree and return its map.

    All construction writes go through the normal syscall layer, so run
    this *before* attaching the tracer (or accept the setup events in the
    trace; the generator builds first and traces after, like the real
    systems whose disks were already populated when tracing began).
    """
    ns = Namespace(config=config)
    for d in (
        "/bin", "/usr", "/usr/bin", "/usr/include", "/usr/lib", "/usr/adm",
        "/usr/spool", "/usr/spool/lpd", "/usr/spool/mail", "/etc", "/tmp",
        "/usr/hosts",
    ):
        fs.makedirs(d)

    def create(path: str, size: int, uid: int = 0) -> None:
        fd = fs.open(path, AccessMode.WRITE, uid=uid, create=True)
        if size:
            fs.write(fd, size)
        fs.close(fd)

    for i in range(config.commands):
        where = "/bin" if i < config.commands // 3 else "/usr/bin"
        path = f"{where}/cmd{i:03d}"
        create(path, _size(rng, config.command_size_median, sigma=0.9, low=4096))
        ns.commands.append(path)
    ns.command_cum_weights = list(accumulate(zipf_weights(len(ns.commands), skew=1.1)))

    for i in range(config.headers):
        path = f"/usr/include/h{i:03d}.h"
        create(path, _size(rng, config.header_size_median, sigma=0.8, low=128,
                           high=64 * 1024))
        ns.headers.append(path)
    ns.header_cum_weights = list(accumulate(zipf_weights(len(ns.headers), skew=1.2)))

    # The nroff/troff macro packages: small, shared, re-read by every
    # formatting run (document formatting is half of what Ucbarpa and
    # Ucbernie did).
    for name, size in (("tmac.s", 18 * 1024), ("tmac.an", 14 * 1024),
                       ("tmac.e", 22 * 1024)):
        path = f"/usr/lib/{name}"
        create(path, size)
        ns.macros.append(path)

    for i in range(config.libraries):
        path = f"/usr/lib/lib{i}.a"
        create(path, _size(rng, config.library_size_median, sigma=0.6, low=16 * 1024))
        ns.libraries.append(path)

    # The hot /etc files every program of the era consulted: password and
    # group maps on most command invocations, termcap on every
    # screen-oriented program start, motd at login.  Their constant
    # re-reading is a large share of read traffic and the main source of
    # the cache's read locality (Section 6) — and of the upturn in
    # Figure 6 when huge blocks leave the cache with too few entries.
    for name, size in (
        ("passwd", config.passwd_size),
        ("group", 2 * 1024),
        ("termcap", config.termcap_size),
        ("motd", 1536),
        ("utmp", 4 * 1024),
    ):
        path = f"/etc/{name}"
        create(path, size)
        ns.etc_files[name] = path

    for i in range(config.admin_files):
        path = f"/usr/adm/admin{i}"
        create(path, config.admin_file_size)
        ns.admin_files.append(path)
        ns.admin_hotspots[path] = [
            rng.randrange(config.admin_file_size) for _ in range(64)
        ]
    ns.admin_hotspot_cum_weights = list(accumulate(zipf_weights(64, skew=1.0)))

    for i in range(config.hosts):
        path = f"/usr/hosts/host{i:02d}"
        create(path, _size(rng, 1500, sigma=0.3, low=512, high=4096))
        ns.status_files.append(path)

    for uid in range(1, config.n_users + 1):
        home = f"/usr/u{uid}"
        fs.makedirs(home, uid=uid)
        ns.home_dirs[uid] = home
        mailbox = f"/usr/spool/mail/u{uid}"
        create(mailbox, _size(rng, 8192, sigma=1.2, low=0, high=200 * 1024), uid=uid)
        ns.mailboxes[uid] = mailbox
        ns.sources[uid] = []
        for j in range(config.sources_per_user):
            path = f"{home}/src{j:02d}.c"
            create(path, _size(rng, config.source_size_median, sigma=1.0,
                               low=128, high=200 * 1024), uid=uid)
            ns.sources[uid].append(path)
        ns.docs[uid] = []
        for j in range(config.docs_per_user):
            path = f"{home}/doc{j:02d}"
            create(path, _size(rng, config.doc_size_median, sigma=1.1,
                               low=256, high=500 * 1024), uid=uid)
            ns.docs[uid].append(path)
        ns.decks[uid] = []
        for j in range(config.decks_per_user):
            path = f"{home}/deck{j:02d}"
            create(path, _size(rng, config.deck_size_median, sigma=0.8,
                               low=4 * 1024, high=2 * 1024 * 1024), uid=uid)
            ns.decks[uid].append(path)

    return ns
