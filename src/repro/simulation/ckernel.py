"""On-demand compiled C cycle kernel for the array backend.

The array backend's per-cycle hot path (switch traversal + ejection) is
implemented twice: as numpy passes in :mod:`repro.simulation.kernels`
(always available) and as a single C function (``_ckernel.c``) compiled
here with the system C compiler on first use.  Both paths are
bit-identical — the kernels module asserts as much in the test-suite —
so the C path is purely an accelerator: roughly one function call per
cycle instead of ~40 numpy dispatches.

Compilation is attempted once per process and cached as a shared object
(honouring ``STARNET_CKERNEL_DIR``, defaulting to a per-user cache
directory) whose name hashes everything that shapes the binary: the
source, the compiler's resolved path and version banner, and the
compile flags.  A portable ``-O2`` retry, or a sanitizer build (CI
replaces ``_FLAG_LADDER`` in-process), can so never be served under the
native-tuned name.  Set ``STARNET_NO_CKERNEL=1`` to force the numpy path silently; an unexpected
compile/load *failure* also falls back to numpy but emits one
:class:`RuntimeWarning` for the whole process (the result is correct
either way — only slower).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

__all__ = ["KernelBundle", "load_bundle", "load_kernel"]

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: The kernel takes one int64 parameter block (see _ckernel.c for the
#: slot layout) so each per-cycle call marshals a single pointer.
_SIGNATURE: list = [ctypes.c_void_p]

#: Flag sets tried in order: native tuning (the cache is per machine and
#: keyed by flags), then a portable build for compilers that reject it.
_FLAG_LADDER = (("-O3", "-march=native"), ("-O2",))


class KernelBundle(NamedTuple):
    """The compiled entry points of one ``_ckernel.c`` build.

    ``cycle`` runs one cycle of phases 2-5; ``run`` is the resident
    driver that loops whole cycles in C; ``pool_new``/``pool_free``
    manage the persistent worker-thread pool (``pool_new(n)`` returns an
    opaque handle as int64, 0 when pool creation failed — callers fall
    back to the serial path).
    """

    cycle: object
    run: object
    pool_new: object
    pool_free: object


_cached: tuple | None = None


def _cache_dir() -> Path:
    override = os.environ.get("STARNET_CKERNEL_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "starnet-repro"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _so_path(source: bytes, cc: str, banner: bytes, flags: tuple[str, ...]) -> Path:
    """Cache entry of one (source, compiler, flags) build."""
    h = hashlib.sha256(source)
    for part in (os.path.realpath(cc).encode(), banner, *map(str.encode, flags)):
        h.update(b"\0" + part)
    return _cache_dir() / f"ckernel-{h.hexdigest()[:16]}.so"


def _build(cc: str, flags: tuple[str, ...], out: Path) -> bool:
    out.parent.mkdir(parents=True, exist_ok=True)
    # Compile into a unique temp name, then atomically rename, so
    # concurrent processes (campaign pool workers) never load a half-
    # written shared object.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, "-shared", "-fPIC", "-pthread", "-o", tmp, str(_SOURCE)],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode == 0:
            os.replace(tmp, out)
        return proc.returncode == 0
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _compiled_path() -> Path | None:
    """The cached (or freshly built) shared object, None on failure.

    Prefers any flag set already in the cache, in ladder order, before
    compiling anything, so a machine whose compiler rejects the first
    set pays the failed compile once, not once per process.
    """
    cc = _compiler()
    if cc is None:
        return None
    try:
        banner = subprocess.run([cc, "--version"], capture_output=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    source = _SOURCE.read_bytes()
    ladder = [(flags, _so_path(source, cc, banner, flags)) for flags in _FLAG_LADDER]
    cached = [path for _, path in ladder if path.exists()]
    if cached:
        return cached[0]
    return next((path for flags, path in ladder if _build(cc, flags, path)), None)


def _fail(reason: str):
    """Cache the numpy fallback, warning once per process."""
    global _cached
    _cached = (None,)
    warnings.warn(
        f"compiled cycle kernel unavailable ({reason}); "
        "falling back to the (slower, bit-identical) numpy path",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


def load_bundle() -> KernelBundle | None:
    """The compiled kernel entry points, or None when unavailable.

    All four symbols load (or fail) as one unit: a build that exports
    ``starnet_cycle`` but not the pool entry points is treated as a
    failed load, so callers never see a half-threaded kernel.
    """
    global _cached
    if _cached is not None:
        return _cached[0]
    if os.environ.get("STARNET_NO_CKERNEL"):
        # Deliberate opt-out: no warning.
        _cached = (None,)
        return None
    try:
        so_path = _compiled_path()
        if so_path is None:
            return _fail("no working C compiler")
        lib = ctypes.CDLL(str(so_path))
        cycle = lib.starnet_cycle
        cycle.argtypes = _SIGNATURE
        cycle.restype = ctypes.c_int64
        run = lib.starnet_run
        run.argtypes = _SIGNATURE
        run.restype = ctypes.c_int64
        pool_new = lib.starnet_pool_new
        pool_new.argtypes = [ctypes.c_int64]
        pool_new.restype = ctypes.c_int64
        pool_free = lib.starnet_pool_free
        pool_free.argtypes = [ctypes.c_int64]
        pool_free.restype = None
        bundle = KernelBundle(cycle, run, pool_new, pool_free)
        _cached = (bundle,)
        return bundle
    except (OSError, AttributeError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


def load_kernel():
    """The compiled ``starnet_cycle`` function, or None when unavailable."""
    bundle = load_bundle()
    return bundle.cycle if bundle is not None else None
