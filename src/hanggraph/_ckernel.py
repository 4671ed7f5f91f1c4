"""Compiled kernels: the semantics twin of ``_pykernel``.

The kernels are plain C in ``hgkernel.c``.  On first import this module
compiles that file with the system C compiler (``$CC``, default ``cc``) into
a shared object cached under ``$XDG_CACHE_HOME/hanggraph`` (default
``~/.cache/hanggraph``) and loads it with ctypes.  The cached file is named after a hash of
the source, the compiler command and the machine, so each source compiles
once per machine; later imports only load it.  Concurrent first imports
serialize on a lock of the cache directory, and the compiler writes a
temporary file that is renamed into place, so no process ever loads a
partly written object.  A failed compile leaves a marker under the
object's name plus ``.failed`` that holds the compiler's reason; later
imports raise that reason without running the compiler, until the marker
is deleted.

Every public function takes the same arguments as its pure twin and
returns the same answer; tuples come back from C packed into one 64-bit
word, whose layout each function's docstring gives.  One conversion
marshals data into C: masks become an ``array('Q')`` and distance matrices
an ``array('b')`` (signed int8, -1 for unreachable), whose bytes C reads; a
graph6 bit field goes in as its bytes, and its masks come back as the words
C filled.
``apsp`` and ``classify_masks`` return the ``array('b')`` that C filled, so
its matrix goes back into a decider as a byte copy; any other flat int
sequence (the pure twin's list, a test's tuple) takes the same conversion.
``profile`` returns the three arrays C filled: the eccentricities
(``array('b')``), every vertex periphery P(v) as ascending vertex ids, P(0)
first, then P(1), and so on (``array('B')`` of n * n bytes, of which the
counts' sum are in use), and |P(v)| per vertex (``array('B')``).
A mask crosses as W = ceil(n / 64) words, low word first, so C serves
every graph up to ``MAXN`` = 128 vertices, where a distance still fits a
signed byte.  Larger graphs (past 11 vertices for
``classify_bits``; for the product verifiers, either factor or the product)
are sent to the pure twin here, so any input gets the pure answer; the twin
is imported on the first such call, so a process that sends none never loads
it.  Flag bits come from ``_contract``, as the twin's do.  Like the
pure twin, every call that decides something about a graph with no vertices
(a distance matrix of ``n`` = 0, ``classify_bits(0, ...)``, an empty join)
raises ``ValueError`` before C sees it.
Importing raises ``ImportError`` with the reason when the kernel cannot be
built or loaded.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from ctypes import c_int, c_int64, c_uint64, c_void_p
from typing import Sequence

from ._contract import F_COMPLEMENT_CONNECTED, F_CONNECTED

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hgkernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC")
MAXN = 128
MAX_CLASSIFY_N = 11  # C(11,2) = 55 edge bits fit a 64-bit subset index
_WORD = (1 << 64) - 1
# one zero word and one zero distance: repeating them is the cheapest way to
# get a fresh output buffer for C to fill
_ZERO_WORD = array("Q", [0])
_ZERO_DIST = array("b", [0])
_ZERO_BYTE = array("B", [0])


def compiler() -> list[str]:
    """The compiler command: ``$CC`` split on whitespace, default ``cc``."""
    return (os.environ.get("CC") or "cc").split() or ["cc"]


def cache_dir() -> str:
    """``$XDG_CACHE_HOME/hanggraph`` (default ``~/.cache/hanggraph``), created
    if missing; an ``OSError`` when it cannot be."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "hanggraph")
    os.makedirs(directory, exist_ok=True)
    return directory


def library_name(source: bytes, cc: Sequence[str]) -> str:
    """File name of the shared object built from ``source`` by ``cc``.

    The key is CRC-32 and Adler-32 of everything that shapes the object,
    which needs only zlib: hashlib would pull OpenSSL into every process.
    """
    key = b"\0".join([source, " ".join([*cc, *CFLAGS]).encode(), os.uname().machine.encode()])
    return f"hgkernel-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"


def _raise_cached_failure(marker: str) -> None:
    try:
        with open(marker, encoding="utf-8") as fh:
            reason = fh.read()
    except FileNotFoundError:
        return
    raise ImportError(reason)


def build() -> str:
    """Compile ``hgkernel.c`` into the cache unless it is there; return its path.

    Raises ``ImportError`` with the reason when the compiler is missing or
    fails, or has failed before on this source.
    """
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    cc = compiler()
    directory = cache_dir()
    path = os.path.join(directory, library_name(source, cc))
    marker = f"{path}.failed"
    if os.path.exists(path):
        return path
    _raise_cached_failure(marker)

    # only a build needs these; loading a cached object stays cheap
    import fcntl
    import shutil
    import subprocess

    if shutil.which(cc[0]) is None:
        raise ImportError(f"no C compiler found (CC={' '.join(cc)})")
    lock = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released by close
        if os.path.exists(path):  # another process built it while we waited
            return path
        _raise_cached_failure(marker)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            proc = subprocess.run([*cc, *CFLAGS, "-o", tmp, SOURCE],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                reason = (f"{' '.join(cc)} failed on {SOURCE}: "
                          f"{(proc.stderr or proc.stdout).strip()} "
                          f"(cached in {marker}; delete it to compile again)")
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(reason)
                os.replace(tmp, marker)
                raise ImportError(reason)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    finally:
        os.close(lock)
    return path


def _entry(lib: ctypes.CDLL, name: str, restype, *argtypes):
    fn = getattr(lib, name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


_P = c_void_p  # inputs go in as bytes, the output as an array's address
try:
    LIBRARY = build()
    _lib = ctypes.CDLL(LIBRARY)
    _apsp = _entry(_lib, "hg_apsp", None, _P, c_int, _P)
    _connected = _entry(_lib, "hg_connected", c_int, _P, c_int)
    _block = _entry(_lib, "hg_block", c_int, _P, c_int)
    _kmin = _entry(_lib, "hg_kmin", c_int, _P, c_int)
    _subset = _entry(_lib, "hg_subset", c_int64, _P, c_int)
    _triples = _entry(_lib, "hg_triples", c_int64, _P, c_int)
    _profile = _entry(_lib, "hg_profile", c_int64, _P, c_int, _P, _P, _P)
    _classify = _entry(_lib, "hg_classify", c_int64, c_int, c_uint64)
    _classify_masks = _entry(_lib, "hg_classify_masks", c_int64, _P, c_int, _P)
    _graph6 = _entry(_lib, "hg_graph6_masks", None, _P, c_int, _P)
    _corona = _entry(_lib, "hg_corona_verify", c_int, _P, c_int, _P, _P, c_int)
    _cartesian = _entry(_lib, "hg_cartesian_verify", c_int, _P, c_int, _P, _P, c_int, _P)
    _join = _entry(_lib, "hg_join_verify", c_int, _P, c_int, _P, c_int)
except (OSError, AttributeError) as exc:
    # unreadable source, no cache directory, failed exec or load, missing symbol
    raise ImportError(f"compiled kernel unavailable: {exc}") from exc


def _py():
    """The pure twin, imported on the first call that needs it."""
    from . import _pykernel
    return _pykernel


def _masks(masks: Sequence[int]) -> bytes:
    """Each mask as W = ceil(n / 64) words, low word first, vertex after
    vertex; callers send at most MAXN vertices, so W is 1 or 2."""
    if len(masks) <= 64:  # each mask is its own word
        return array("Q", masks).tobytes()
    return array("Q", [m >> s & _WORD for m in masks for s in (0, 64)]).tobytes()


def _dist(dist: Sequence[int], n: int) -> bytes:
    if n < 1 or n * n != len(dist):
        raise ValueError("distance matrix needs n >= 1 and n * n entries")
    return array("b", dist).tobytes()


def apsp(masks: Sequence[int]) -> Sequence[int]:
    """The pure twin's list past MAXN vertices, else the ``array('b')`` C fills."""
    n = len(masks)
    if n > MAXN:
        return _py().apsp(masks)
    dist = _ZERO_DIST * (n * n)  # named, so it outlives the call that fills it
    _apsp(_masks(masks), n, dist.buffer_info()[0])
    return dist


def is_connected_masks(masks: Sequence[int]) -> bool:
    if len(masks) > MAXN:
        return _py().is_connected_masks(masks)
    return bool(_connected(_masks(masks), len(masks)))


def hangable_subset(dist: Sequence[int], n: int) -> tuple[bool, int, int]:
    if n > MAXN:
        return _py().hangable_subset(dist, n)
    r = _subset(_dist(dist, n), n)
    return (True, -1, -1) if r < 0 else (False, r >> 7, r & 127)


def hangable_triples(dist: Sequence[int], n: int) -> tuple[bool, int, int, int]:
    """Mirror of the pure hangable_triples: the first violating triple or -1s."""
    if n > MAXN:
        return _py().hangable_triples(dist, n)
    r = _triples(_dist(dist, n), n)
    return (True, -1, -1, -1) if r < 0 else (False, r >> 14, r >> 7 & 127, r & 127)


def profile(dist: Sequence[int], n: int) -> tuple[Sequence[int], int, int,
                                                  Sequence[int], Sequence[int]]:
    """Mirror of the pure profile.  C fills the three arrays the module
    docstring describes and packs the diameter in bits 0-7 of its word and
    the radius in bits 8-15."""
    if n > MAXN:
        return _py().profile(dist, n)
    flat = _dist(dist, n)
    ecc, members, counts = _ZERO_DIST * n, _ZERO_BYTE * (n * n), _ZERO_BYTE * n
    r = _profile(flat, n, ecc.buffer_info()[0], members.buffer_info()[0],
                 counts.buffer_info()[0])
    return ecc, r & 255, r >> 8, members, counts


def is_block_graph_masks(masks: Sequence[int]) -> bool:
    if len(masks) > MAXN:
        return _py().is_block_graph_masks(masks)
    return bool(_block(_masks(masks), len(masks)))


def smallest_power_k(dist: Sequence[int], n: int) -> int:
    if n > MAXN:
        return _py().smallest_power_k(dist, n)
    return _kmin(_dist(dist, n), n)


def classify_bits(n: int, bits: int) -> tuple[int, int, int, int]:
    """Mirror of the pure classify_bits; n is capped so bits fit a word."""
    if n > MAX_CLASSIFY_N:
        return _py().classify_bits(n, bits)
    if n < 1:
        raise ValueError("classify_bits needs at least one vertex")
    r = _classify(n, bits)
    if r == 0:
        return (0, -1, -1, -1)
    return (r & 255, r >> 8 & 255, r >> 16 & 255, r >> 24)


def classify_masks(masks: Sequence[int]) -> tuple[int, int, int, int, int, int,
                                                  Sequence[int] | None]:
    """Mirror of the pure classify_masks.  C packs ``classify_bits``' word
    (flags in bits 0-7, then diameter, radius and kmin, a byte each) with
    F_COMPLEMENT_CONNECTED and F_SELF_COMPLEMENTARY among the flags, |P(G)|
    in bits 32-39 and the edge count m from bit 40, and fills the
    complement's matrix into the ``array('b')`` returned last."""
    n = len(masks)
    if n > MAXN:
        return _py().classify_masks(masks)
    if n < 1:
        raise ValueError("classify_masks needs at least one vertex")
    co_dist = _ZERO_DIST * (n * n)
    r = _classify_masks(_masks(masks), n, co_dist.buffer_info()[0])
    flags = r & 255
    if not flags & F_COMPLEMENT_CONNECTED:
        co_dist = None
    if not flags & F_CONNECTED:
        return (flags, r >> 40, -1, -1, -1, -1, co_dist)
    return (flags, r >> 40, r >> 8 & 255, r >> 16 & 255, r >> 32 & 255, r >> 24 & 255, co_dist)


def graph6_masks(n: int, body: bytes) -> tuple[int, ...]:
    """Mirror of the pure graph6_masks; C fills W words per vertex."""
    need = (n * (n - 1) // 2 + 5) // 6
    if n > MAXN or len(body) != need:  # the twin raises on a wrong length
        return _py().graph6_masks(n, body)
    words = _ZERO_WORD * (n if n <= 64 else 2 * n)
    _graph6(body, n, words.buffer_info()[0])
    if n <= 64:
        return tuple(words.tolist())
    return tuple([words[k] | words[k + 1] << 64 for k in range(0, 2 * n, 2)])


def corona_verify(masks_g: Sequence[int], dist_g: Sequence[int],
                  masks_h: Sequence[int]) -> int:
    """Mirror of the pure corona_verify."""
    ng, nh = len(masks_g), len(masks_h)
    if max(nh, ng * (1 + nh)) > MAXN:
        return _py().corona_verify(masks_g, dist_g, masks_h)
    return _corona(_masks(masks_g), ng, _dist(dist_g, ng), _masks(masks_h), nh)


def cartesian_verify(masks_g: Sequence[int], dist_g: Sequence[int],
                     masks_h: Sequence[int], dist_h: Sequence[int]) -> int:
    """Mirror of the pure cartesian_verify."""
    ng, nh = len(masks_g), len(masks_h)
    if max(ng, nh, ng * nh) > MAXN:
        return _py().cartesian_verify(masks_g, dist_g, masks_h, dist_h)
    return _cartesian(_masks(masks_g), ng, _dist(dist_g, ng),
                      _masks(masks_h), nh, _dist(dist_h, nh))


def join_verify(masks_g: Sequence[int], masks_h: Sequence[int]) -> int:
    """Mirror of the pure join_verify."""
    ng, nh = len(masks_g), len(masks_h)
    if ng + nh > MAXN:
        return _py().join_verify(masks_g, masks_h)
    if ng + nh < 1:
        raise ValueError("join_verify needs at least one vertex")
    return _join(_masks(masks_g), ng, _masks(masks_h), nh)
