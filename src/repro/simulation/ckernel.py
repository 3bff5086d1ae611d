"""On-demand compiled C cycle loop for the array backend.

The array backend's cycle is implemented twice: as numpy passes in
:mod:`repro.simulation.kernels` (always available) and as one C loop,
``starnet_run`` in ``_ckernel.c``, compiled here with the system C
compiler on first use.  Both paths are bit-identical — the test-suite
asserts it cycle by cycle — so the C path is purely an accelerator: it
runs whole cycles without returning to Python, instead of ~40 numpy
dispatches per cycle.

Compilation is attempted once per process and cached as a shared object
(honouring ``STARNET_CKERNEL_DIR``, defaulting to a per-user cache
directory) whose name hashes everything that shapes the binary: the
source, the compiler's resolved path and version banner, and the
compile flags, and the target those flags resolve to (the compiler's
predefined macros, so a home directory shared between CPUs never serves
a ``-march=native`` binary built for another one).  A portable ``-O2``
retry, or a sanitizer build (CI replaces ``_FLAG_LADDER`` in-process),
can so never be served under the native-tuned name.  Set
``STARNET_NO_CKERNEL=1`` to force the numpy path silently; an unexpected
compile/load *failure* also falls back to numpy but emits one
:class:`RuntimeWarning` for the whole process (the result is correct
either way — only slower).

The kernel's ABI is declared once, in the C source: the
``STARNET_PARAMS`` X-macro lists the parameter-block slots in order and
the ``RUN_*`` defines the return-reason bits.  Both are parsed from the
same source bytes the cache key hashes, so the names a bundle carries
always describe the binary it loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Mapping, NamedTuple

from repro.utils.exceptions import SimulationError

__all__ = ["KernelABIError", "KernelBundle", "load_bundle"]

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: The kernel takes one int64 parameter block (its slots are the
#: bundle's ``params``) so each call marshals a single pointer.
_SIGNATURE: list = [ctypes.c_void_p]

#: Flag sets tried in order: native tuning (the cache is per machine and
#: keyed by flags), then a portable build for compilers that reject it.
_FLAG_LADDER = (("-O3", "-march=native"), ("-O2",))


class KernelABIError(SimulationError):
    """A parameter block whose slot names differ from ``STARNET_PARAMS``."""


class KernelBundle(NamedTuple):
    """The compiled entry points of one ``_ckernel.c`` build, and its ABI.

    ``run`` is the resident driver that loops whole cycles in C;
    ``pool_new``/``pool_free`` manage the persistent worker-thread pool
    (``pool_new(n)`` returns an opaque handle as int64, 0 when pool
    creation failed — callers fall back to the serial path).
    ``params`` names the parameter-block slots in order; ``reasons``
    maps each ``starnet_run`` return-reason name (``RUN_`` dropped) to
    its bit.
    """

    run: object
    pool_new: object
    pool_free: object
    params: tuple[str, ...]
    reasons: dict[str, int]

    def param_block(self, values: Mapping[str, int]) -> list[int]:
        """``values`` in slot order; :class:`KernelABIError` unless its
        names are exactly the declared slots."""
        if values.keys() != set(self.params):
            missing = [name for name in self.params if name not in values]
            extra = sorted(values.keys() - set(self.params))
            raise KernelABIError(
                f"parameter block does not match STARNET_PARAMS: "
                f"missing {missing}, undeclared {extra}"
            )
        return [values[name] for name in self.params]


_cached: tuple | None = None


def _abi(source: bytes) -> tuple[tuple[str, ...], dict[str, int]]:
    """The slot names of ``STARNET_PARAMS`` and the ``RUN_*`` bits."""
    code = re.sub(rb"/\*.*?\*/", b"", source, flags=re.S).decode()
    macro = re.search(r"#define STARNET_PARAMS\(X\)((?:.*\\\n)*.*)", code)
    if macro is None:
        raise ValueError("no STARNET_PARAMS declaration in the kernel source")
    params = tuple(re.findall(r"\bX\([^,()]+,\s*(\w+)\s*\)", macro.group(1)))
    reasons = re.findall(r"^#define RUN_(\w+)\s+(\d+)", code, re.M)
    return params, {name: int(bit) for name, bit in reasons}


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


def _target(cc: str, flags: tuple[str, ...]) -> bytes:
    """The compiler's predefined macros under ``flags``, sorted: what
    ``-march=native`` resolves to (``__AVX2__``, ``__AVX512F__``, ...)."""
    try:
        out = subprocess.run(
            [cc, *flags, "-dM", "-E", "-x", "c", os.devnull],
            capture_output=True,
            timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return b""
    return b"\n".join(sorted(out.splitlines()))


def _so_path(
    source: bytes, cc: str, banner: bytes, flags: tuple[str, ...], target: bytes
) -> Path:
    """Cache entry of one (source, compiler, flags, target) build."""
    h = hashlib.sha256(source)
    for part in (os.path.realpath(cc).encode(), banner, *map(str.encode, flags), target):
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


def _compiled_path(source: bytes) -> Path | None:
    """The cached (or freshly built) shared object of ``source``, None on
    failure.

    Prefers any flag set already in the cache, in ladder order, before
    compiling anything, so a machine whose compiler rejects the first
    set pays the failed compile once, not once per process.  Names are
    computed lazily: a hit on the first flag set costs one target probe.
    """
    cc = _compiler()
    if cc is None:
        return None
    try:
        banner = subprocess.run([cc, "--version"], capture_output=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    ladder = []
    for flags in _FLAG_LADDER:
        path = _so_path(source, cc, banner, flags, _target(cc, flags))
        if path.exists():
            return path
        ladder.append((flags, path))
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

    All three symbols load (or fail) as one unit: a build that exports
    ``starnet_run`` but not the pool entry points is treated as a failed
    load, so callers never see a half-threaded kernel.  The ABI comes
    from the source bytes the build was keyed by.
    """
    global _cached
    if _cached is not None:
        return _cached[0]
    if os.environ.get("STARNET_NO_CKERNEL"):
        # Deliberate opt-out: no warning.
        _cached = (None,)
        return None
    try:
        source = _SOURCE.read_bytes()
        params, reasons = _abi(source)
        so_path = _compiled_path(source)
        if so_path is None:
            return _fail("no working C compiler")
        lib = ctypes.CDLL(str(so_path))
        run = lib.starnet_run
        run.argtypes = _SIGNATURE
        run.restype = ctypes.c_int64
        pool_new = lib.starnet_pool_new
        pool_new.argtypes = [ctypes.c_int64]
        pool_new.restype = ctypes.c_int64
        pool_free = lib.starnet_pool_free
        pool_free.argtypes = [ctypes.c_int64]
        pool_free.restype = None
        bundle = KernelBundle(run, pool_new, pool_free, params, reasons)
        _cached = (bundle,)
        return bundle
    except (OSError, AttributeError, ValueError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
