"""The corpus cache: ingest's channel columns of an events file, kept between commands.

An entry is ``$XDG_CACHE_HOME/crowdcoord/<key>``, or ``~/.cache/crowdcoord/<key>`` when
the variable is unset.  The key is a sha256 over the events file's sha256, a digest of
crowdcoord's own sources and the interpreter's cache tag, so a changed file, a code
change or another interpreter starts a new entry.  The file is the key, the sha256 of
the payload, then the payload: ``marshal.dumps`` of ingest's columns.  A load checks
both digests.  They catch damage, not tampering, so the cache is used only in a
directory of this user that no one else may write to.  Ingest stores an entry only when
the bytes it parsed have the sha256 that the lookup took, so an entry holds the columns
of its key's bytes.  Any failure to read or write an entry (no directory, a full disk, a
truncated, corrupt or foreign entry) only means that ingest parses the file, so no output
depends on whether a command hit or missed.
"""

from __future__ import annotations

import gc
import hashlib
import marshal
import os
import stat
import sys
from pathlib import Path

# After each store the least recently used entries are removed until the rest fit here.
CACHE_BYTES = 2**30
_DIGEST = 32  # bytes of a sha256


def directory() -> Path | None:
    """Where entries live, or None when there is no absolute cache home."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):  # unset, empty or relative: the XDG default
        home = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(home, "crowdcoord") if os.path.isabs(home) else None


def _private(home: Path) -> bool:
    """Make home if it is missing; whether it is a directory of this user that neither
    its group nor others may write to."""
    home.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = os.stat(home)
    return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _sources() -> bytes:
    """A digest of crowdcoord's .py sources."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.digest()


def _hash(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def lookup(events_path: str) -> Entry | None:
    """The entry of an events file's bytes as they are now, or None: the file is not a
    regular file (a FIFO or a terminal is read once, by the parse) or cannot be hashed
    (the parse reports why), or there is no private cache directory."""
    home = directory()
    try:
        if (home is None or not stat.S_ISREG(os.stat(events_path).st_mode)
                or not _private(home)):
            return None
        return Entry(_hash(events_path), home)
    except (OSError, ValueError):  # ValueError: a path with a NUL, which open reports
        return None


class Entry:
    """The entry of the events bytes whose sha256 is events_sha256."""

    def __init__(self, events_sha256: str, home: Path):
        self.events_sha256 = events_sha256
        tag = str(sys.implementation.cache_tag).encode()
        self.key = hashlib.sha256(
            bytes.fromhex(events_sha256) + _sources() + tag).digest()
        self.home, self.path = home, home / self.key.hex()

    def load(self):
        """The stored columns, or None without an intact entry under this key.  A hit
        makes the entry the most recently used."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        payload = memoryview(data)[2 * _DIGEST:]
        if (data[:_DIGEST] != self.key
                or hashlib.sha256(payload).digest() != data[_DIGEST:2 * _DIGEST]):
            return None
        try:
            os.utime(self.path)
        except OSError:
            pass
        # The columns are tuples of strings and ints, which hold no cycle for the cyclic
        # collector to free: pause it while they are built, as parse_events does.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return marshal.loads(payload)
        finally:
            if collecting:
                gc.enable()

    def store(self, columns) -> None:
        """Store the columns parsed from the bytes of events_sha256, then prune the cache
        to CACHE_BYTES."""
        try:
            payload = marshal.dumps(columns)
            part = self.path.with_name(f"{self.path.name}.{os.getpid()}.part")
            try:
                with open(part, "wb") as fh:
                    fh.write(self.key + hashlib.sha256(payload).digest())
                    fh.write(payload)
                os.replace(part, self.path)
            finally:
                part.unlink(missing_ok=True)
            prune(self.home)
        except OSError:
            pass


def prune(home: Path) -> None:
    """Remove the least recently used entries until the rest hold at most CACHE_BYTES."""
    entries = []
    with os.scandir(home) as it:
        for item in it:
            st = item.stat(follow_symlinks=False)
            entries.append((st.st_mtime_ns, st.st_size, item.path))
    total = sum(size for _, size, _ in entries)
    for _, size, path in sorted(entries):
        if total <= CACHE_BYTES:
            break
        try:
            os.unlink(path)
        except FileNotFoundError:  # another command pruned it first
            pass
        total -= size
