"""Compiled-kernel loading: cache, opt-out, and compile-failure fallback."""

import warnings

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation import ckernel


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Reset the process-level kernel cache and isolate the disk cache."""
    saved = ckernel._cached
    ckernel._cached = None
    monkeypatch.setenv("STARNET_CKERNEL_DIR", str(tmp_path / "kcache"))
    yield
    ckernel._cached = saved


class TestCompileFailureFallback:
    def test_broken_compiler_warns_once_then_stays_silent(
        self, fresh_cache, monkeypatch, star3
    ):
        """No working cc: one RuntimeWarning, then the numpy path runs."""
        monkeypatch.setattr(ckernel, "_compiler", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_kernel() is None
        relevant = [w for w in caught if w.category is RuntimeWarning]
        assert len(relevant) == 1
        assert "falling back" in str(relevant[0].message)
        # Subsequent loads are silent — the failure is cached.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_kernel() is None
        assert not caught
        # The array backend still works, on the numpy path.
        cfg = SimulationConfig(
            message_length=16,
            generation_rate=0.01,
            total_vcs=5,
            warmup_cycles=100,
            measure_cycles=400,
            drain_cycles=800,
            seed=3,
        )
        sim = ArraySimulator(star3, EnhancedNbc(), cfg)
        assert sim._ck is None
        res = sim.run()
        assert len(res) == 1
        assert res[0].messages_generated > 0


class TestOptOut:
    def test_env_opt_out_is_silent(self, fresh_cache, monkeypatch):
        """STARNET_NO_CKERNEL=1 is a deliberate choice: no warning."""
        monkeypatch.setenv("STARNET_NO_CKERNEL", "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_kernel() is None
        assert not caught


@pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
class TestRealBuild:
    def test_load_compile_and_cache(self, fresh_cache):
        fn = ckernel.load_kernel()
        assert fn is not None
        # Second call hits the process cache (same object).
        assert ckernel.load_kernel() is fn


#: The release flag ladder (pinned: a sanitizer run replaces the module's).
LADDER = (("-O3", "-march=native"), ("-O2",))


class TestBuildCacheKey:
    """The cache name hashes source, compiler identity and flags."""

    SRC = b"int f(void) { return 0; }"

    def test_flags_and_compiler_change_the_name(self, fresh_cache):
        base = ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.0", ("-O3", "-march=native"))
        assert base != ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.0", ("-O2",))
        assert base != ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.1", ("-O3", "-march=native"))
        assert base != ckernel._so_path(self.SRC + b" ", "/usr/bin/cc", b"cc 1.0", ("-O3", "-march=native"))
        assert base == ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.0", ("-O3", "-march=native"))

    @pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
    def test_fallback_build_is_cached_under_its_own_flags(self, fresh_cache, monkeypatch):
        """A rejected first flag set: the -O2 build lands under the -O2
        name, and the next process loads it without compiling."""
        monkeypatch.setattr(ckernel, "_FLAG_LADDER", LADDER)
        built = []

        def fake_build(cc, flags, out):
            built.append(flags)
            if flags != ("-O2",):
                return False
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_bytes(b"")
            return True

        monkeypatch.setattr(ckernel, "_build", fake_build)
        first = ckernel._compiled_path()
        assert built == [("-O3", "-march=native"), ("-O2",)]
        names = {flags: p for flags, p in _ladder_paths()}
        assert first == names[("-O2",)] != names[("-O3", "-march=native")]
        built.clear()
        assert ckernel._compiled_path() == first
        assert built == []


def _ladder_paths():
    import subprocess

    cc = ckernel._compiler()
    banner = subprocess.run([cc, "--version"], capture_output=True).stdout
    source = ckernel._SOURCE.read_bytes()
    return [(f, ckernel._so_path(source, cc, banner, f)) for f in LADDER]
