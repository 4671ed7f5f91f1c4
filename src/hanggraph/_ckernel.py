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
returns the same answer, which C computes itself: this module never imports
the twin.  Masks go into C as W = ceil(n / 64) words per vertex, low word
first; distance matrices as an ``array('h')`` (int16, -1 for unreachable),
read in place, so any other flat int sequence is converted first; a graph6
bit field as its bytes.  ``apsp`` and ``classify_masks`` return the
``array('h')`` C filled, and ``profile`` the eccentricities (``array('h')``),
every P(v) as ascending vertex ids, P(0) first (``array('H')`` of as many
items as the counts sum to, which the first of its two C calls returns), and
each |P(v)| (``array('H')``).  ``subgraph_counts`` walks the k-subsets of a
host in one C call per ``HITS`` hangable subsets it reports: C keeps the
current subset in an index array of k ints, builds each subset's graph in
scratch for a graph on k vertices, and writes the ids of the hangable ones
into a hits buffer of ``HITS`` * k ints when the caller wants them.
Tuples come back packed into one 64-bit word, laid out in each docstring.

C allocates nothing: every buffer it writes is a repeat of one of the
``_ZERO`` items, and a call that needs several gets one scratch buffer of
``_work_words`` words.  Every call that
takes or makes a distance matrix, or tests connectivity, raises
``ValueError`` past ``MAX_DISTANCE_N`` = 32767 vertices, where a distance
may not fit int16, before C sees the graph; ``classify_bits`` does past
``MAX_CLASSIFY_N`` = 11.  The block test and the graph6 decoder serve any
size.  Like the pure twin, every call that decides something about a graph
with no vertices raises ``ValueError`` before C sees it.  Flag bits and
limits come from ``_contract``.  Importing raises ``ImportError`` with the
reason when the kernel cannot be built or loaded.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from ctypes import c_int, c_int64, c_uint64, c_void_p
from functools import cache
from typing import Callable, Sequence

from ._contract import F_COMPLEMENT_CONNECTED, F_CONNECTED, MAX_CLASSIFY_N, MAX_DISTANCE_N

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hgkernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC")
BLOCK_INTS = 6  # ints per vertex of the block test's scratch, as in hgkernel.c
# one zero item of each type C reads or writes: repeating one is the
# cheapest way to get a fresh buffer for C to fill
_ZERO = {code: array(code, [0]) for code in "hHiQ"}
HITS = 1024  # hangable subsets per subgraph_counts call: bounds its hits buffer


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


_P = c_void_p  # inputs go in as bytes or an array's address, outputs as an array's address
try:
    LIBRARY = build()
    _lib = ctypes.CDLL(LIBRARY)
    _apsp = _entry(_lib, "hg_apsp", None, _P, c_int, _P)
    _connected = _entry(_lib, "hg_connected", c_int, _P, c_int)
    _block = _entry(_lib, "hg_block", c_int, _P, c_int, _P)
    _kmin = _entry(_lib, "hg_kmin", c_int, _P, c_int, _P)
    _subset = _entry(_lib, "hg_subset", c_int64, _P, c_int, _P)
    _triples = _entry(_lib, "hg_triples", c_int64, _P, c_int, _P)
    _profile = _entry(_lib, "hg_profile", c_int64, _P, c_int, _P, _P)
    _profile_members = _entry(_lib, "hg_profile_members", None, _P, c_int, _P, _P)
    _classify = _entry(_lib, "hg_classify", c_int64, c_int, c_uint64)
    _classify_masks = _entry(_lib, "hg_classify_masks", c_int64, _P, c_int, _P, _P)
    _graph6 = _entry(_lib, "hg_graph6_masks", None, _P, c_int, _P)
    _corona = _entry(_lib, "hg_corona_verify", c_int, _P, c_int, _P, _P, c_int, _P)
    _cartesian = _entry(_lib, "hg_cartesian_verify", c_int, _P, c_int, _P, _P, c_int, _P, _P)
    _join = _entry(_lib, "hg_join_verify", c_int, _P, c_int, _P, c_int, _P)
    _subgraphs = _entry(_lib, "hg_subgraph_counts", c_int, _P, c_int, c_int, _P, _P, _P, c_int)
except (OSError, AttributeError) as exc:
    # unreadable source, no cache directory, failed exec or load, missing symbol
    raise ImportError(f"compiled kernel unavailable: {exc}") from exc


@cache  # one int per graph size in use; sizing costs more than the allocation
def _work_words(n: int, extra: int = 0) -> int:
    """The words of scratch for C to build and measure a graph on n vertices,
    laid out as hgkernel.c's ``struct work``: two words of counts out, n * W
    mask words, ``BLOCK_INTS`` * n ints, the graph's n * n int16 matrix and
    n eccentricities, then ``extra`` int16s more."""
    return 2 + n * (n + 63 >> 6) + (4 * BLOCK_INTS * n + 2 * (n * n + n + extra) + 7) // 8


def _fits(n: int) -> int:
    """n, or ``ValueError`` past ``MAX_DISTANCE_N``, where distances may not fit int16."""
    if n > MAX_DISTANCE_N:
        raise ValueError(f"a graph on {n} vertices is past the kernel's "
                         f"{MAX_DISTANCE_N}-vertex limit for distances")
    return n


def _masks(masks: Sequence[int]) -> bytes:
    """Each mask as W = ceil(n / 64) words, low word first, vertex after vertex."""
    if len(masks) <= 64:  # each mask is its own word
        return array("Q", masks).tobytes()
    size = 8 * (len(masks) + 63 >> 6)
    return b"".join([m.to_bytes(size, "little") for m in masks])


def _dist(dist: Sequence[int], n: int) -> array:
    """The matrix as an ``array('h')`` C can read in place: itself if it is one."""
    if not 0 < n <= MAX_DISTANCE_N or n * n != len(dist):
        raise ValueError(f"a distance matrix needs 1 to {MAX_DISTANCE_N} vertices "
                         f"and n * n entries")
    return dist if type(dist) is array and dist.typecode == "h" else array("h", dist)


def apsp(masks: Sequence[int]) -> Sequence[int]:
    """The ``array('h')`` C fills."""
    n = _fits(len(masks))
    dist = _ZERO["h"] * (n * n)  # named, so it outlives the call that fills it
    _apsp(_masks(masks), n, dist.buffer_info()[0])
    return dist


def is_connected_masks(masks: Sequence[int]) -> bool:
    return bool(_connected(_masks(masks), _fits(len(masks))))  # C keeps its masks on the stack


def hangable_subset(dist: Sequence[int], n: int) -> tuple[bool, int, int]:
    d, ecc = _dist(dist, n), _ZERO["h"] * n
    r = _subset(d.buffer_info()[0], n, ecc.buffer_info()[0])
    return (True, -1, -1) if r < 0 else (False, r >> 16, r & 0xFFFF)


def hangable_triples(dist: Sequence[int], n: int) -> tuple[bool, int, int, int]:
    """Mirror of the pure hangable_triples: the first violating triple or -1s."""
    d, ecc = _dist(dist, n), _ZERO["h"] * n
    r = _triples(d.buffer_info()[0], n, ecc.buffer_info()[0])
    return (True, -1, -1, -1) if r < 0 else (False, r >> 32, r >> 16 & 0xFFFF, r & 0xFFFF)


def profile(dist: Sequence[int], n: int) -> tuple[Sequence[int], int, int,
                                                  Sequence[int], Sequence[int]]:
    """Mirror of the pure profile.  One C call fills the eccentricities and
    counts and packs the diameter in bits 0-15 of its word, the radius in
    bits 16-31 and the counts' sum above; a second fills the members, in a
    buffer of that many ids."""
    d = _dist(dist, n)
    ecc, counts = _ZERO["h"] * n, _ZERO["H"] * n
    r = _profile(d.buffer_info()[0], n, ecc.buffer_info()[0], counts.buffer_info()[0])
    members = _ZERO["H"] * (r >> 32)
    _profile_members(d.buffer_info()[0], n, ecc.buffer_info()[0], members.buffer_info()[0])
    return ecc, r & 0xFFFF, r >> 16 & 0xFFFF, members, counts


def is_block_graph_masks(masks: Sequence[int]) -> bool:
    work = _ZERO["i"] * (BLOCK_INTS * len(masks))
    return bool(_block(_masks(masks), len(masks), work.buffer_info()[0]))


def smallest_power_k(dist: Sequence[int], n: int) -> int:
    d, ecc = _dist(dist, n), _ZERO["h"] * n
    return _kmin(d.buffer_info()[0], n, ecc.buffer_info()[0])


def classify_bits(n: int, bits: int) -> tuple[int, int, int, int]:
    """Mirror of the pure classify_bits.  C packs flags in bits 0-7, then
    the diameter, radius and kmin, a byte each."""
    if not 1 <= n <= MAX_CLASSIFY_N:
        raise ValueError(f"classify_bits needs 1 to {MAX_CLASSIFY_N} vertices, got {n}")
    r = _classify(n, bits)
    if r == 0:
        return (0, -1, -1, -1)
    return (r & 255, r >> 8 & 255, r >> 16 & 255, r >> 24)


def classify_masks(masks: Sequence[int]) -> tuple[int, int, int, int, int, int,
                                                  Sequence[int] | None]:
    """Mirror of the pure classify_masks.  C packs the flags, with
    F_COMPLEMENT_CONNECTED and F_SELF_COMPLEMENTARY among them, in bits 0-7
    of its word, then the diameter, radius and kmin, 16 bits each; writes m
    and |P(G)| into the two count words of its scratch; and fills the
    complement's matrix into the ``array('h')`` returned last."""
    n = len(masks)
    if not 0 < n <= MAX_DISTANCE_N:
        raise ValueError(f"classify_masks needs 1 to {MAX_DISTANCE_N} vertices, got {n}")
    co_dist, work = _ZERO["h"] * (n * n), _ZERO["Q"] * _work_words(n)
    r = _classify_masks(_masks(masks), n, co_dist.buffer_info()[0], work.buffer_info()[0])
    flags = r & 255
    if not flags & F_COMPLEMENT_CONNECTED:
        co_dist = None
    if not flags & F_CONNECTED:
        return (flags, work[0], -1, -1, -1, -1, co_dist)
    return (flags, work[0], r >> 8 & 0xFFFF, r >> 24 & 0xFFFF, work[1], r >> 40, co_dist)


def graph6_masks(n: int, body: bytes) -> tuple[int, ...]:
    """Mirror of the pure graph6_masks; C fills W words per vertex."""
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:  # C reads exactly need bytes
        raise ValueError(f"graph6 bit field of {n} vertices needs {need} bytes, got {len(body)}")
    size = n + 63 >> 6
    words = _ZERO["Q"] * (n * size)
    _graph6(body, n, words.buffer_info()[0])
    if size <= 1:
        return tuple(words.tolist())
    raw, size = words.tobytes(), 8 * size
    return tuple([int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)])


def corona_verify(masks_g: Sequence[int], dist_g: Sequence[int],
                  masks_h: Sequence[int]) -> int:
    """Mirror of the pure corona_verify."""
    ng, nh = len(masks_g), len(masks_h)
    dg = _dist(dist_g, ng)
    work = _ZERO["Q"] * _work_words(_fits(ng * (1 + nh)), ng)
    return _corona(_masks(masks_g), ng, dg.buffer_info()[0], _masks(masks_h), nh,
                   work.buffer_info()[0])


def cartesian_verify(masks_g: Sequence[int], dist_g: Sequence[int],
                     masks_h: Sequence[int], dist_h: Sequence[int]) -> int:
    """Mirror of the pure cartesian_verify."""
    ng, nh = len(masks_g), len(masks_h)
    dg, dh = _dist(dist_g, ng), _dist(dist_h, nh)
    work = _ZERO["Q"] * _work_words(_fits(ng * nh), ng + nh)
    return _cartesian(_masks(masks_g), ng, dg.buffer_info()[0], _masks(masks_h), nh,
                      dh.buffer_info()[0], work.buffer_info()[0])


def join_verify(masks_g: Sequence[int], masks_h: Sequence[int]) -> int:
    """Mirror of the pure join_verify."""
    nj = len(masks_g) + len(masks_h)
    if not 0 < nj <= MAX_DISTANCE_N:
        raise ValueError(f"join_verify needs 1 to {MAX_DISTANCE_N} vertices, got {nj}")
    work = _ZERO["Q"] * _work_words(nj)
    return _join(_masks(masks_g), len(masks_g), _masks(masks_h), len(masks_h),
                 work.buffer_info()[0])


def subgraph_counts(masks: Sequence[int], k: int,
                    emit: Callable[[tuple[int, ...]], object] | None = None) -> tuple[int, int]:
    """Mirror of the pure subgraph_counts.  C walks the k-subsets from the
    index array on and writes the connected and hangable subsets it visited
    into the two count words of its scratch.  With ``emit``, it writes the
    ids of up to ``HITS`` hangable subsets per call into the hits buffer and
    returns 0 when that is full, the index array then holding the next
    subset, so the walk resumes there."""
    n = len(masks)
    if not 1 <= k <= min(n, MAX_DISTANCE_N):
        raise ValueError(f"subgraph_counts needs 1 <= k <= n and k <= {MAX_DISTANCE_N}, "
                         f"got k = {k} on {n} vertices")
    adj, idx, work = _masks(masks), _ZERO["i"] * k, _ZERO["Q"] * _work_words(k)
    idx[:k] = array("i", range(k))  # the first subset
    cap = HITS if emit is not None else 0
    hits = _ZERO["i"] * (cap * k)
    args = (adj, n, k, idx.buffer_info()[0], work.buffer_info()[0], hits.buffer_info()[0], cap)
    connected = hangable = 0
    while True:
        done = _subgraphs(*args)
        connected += work[0]
        hangable += work[1]
        if emit is not None:
            for t in range(0, work[1] * k, k):
                emit(tuple(hits[t:t + k]))
        if done:
            return connected, hangable
