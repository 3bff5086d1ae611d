"""Compiled-kernel loading: cache, opt-out, compile-failure fallback and
the parameter-block layout contract."""

import warnings

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation import ckernel
from repro.simulation.ckernel import KernelABIError
from repro.simulation.trace import run_digests, state_digest


def _cfg(**overrides):
    base = dict(
        message_length=16,
        generation_rate=0.01,
        total_vcs=5,
        warmup_cycles=100,
        measure_cycles=400,
        drain_cycles=800,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Reset the process-level kernel cache and isolate the disk cache
    (and the environment's opt-out, which tests set where they need it)."""
    saved = ckernel._cached
    ckernel._cached = None
    monkeypatch.setenv("STARNET_CKERNEL_DIR", str(tmp_path / "kcache"))
    monkeypatch.delenv("STARNET_NO_CKERNEL", raising=False)
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
            assert ckernel.load_bundle() is None
        relevant = [w for w in caught if w.category is RuntimeWarning]
        assert len(relevant) == 1
        assert "falling back" in str(relevant[0].message)
        # Subsequent loads are silent — the failure is cached.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_bundle() is None
        assert not caught
        # The array backend still works, on the numpy path.
        sim = ArraySimulator(star3, EnhancedNbc(), _cfg())
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
            assert ckernel.load_bundle() is None
        assert not caught


@pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
class TestRealBuild:
    def test_load_compile_and_cache(self, fresh_cache):
        fn = ckernel.load_bundle()
        assert fn is not None
        # Second call hits the process cache (same object).
        assert ckernel.load_bundle() is fn


#: The release flag ladder (pinned: a sanitizer run replaces the module's).
LADDER = (("-O3", "-march=native"), ("-O2",))


class TestBuildCacheKey:
    """The cache name hashes source, compiler identity, flags and target."""

    SRC = b"int f(void) { return 0; }"
    TARGET = b"#define __SSE2__ 1\n#define __x86_64__ 1"

    def test_flags_and_compiler_change_the_name(self, fresh_cache):
        native = ("-O3", "-march=native")
        base = ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.0", native, self.TARGET)
        assert base != ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.0", ("-O2",), self.TARGET)
        assert base != ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.1", native, self.TARGET)
        assert base != ckernel._so_path(self.SRC + b" ", "/usr/bin/cc", b"cc 1.0", native, self.TARGET)
        # Same flags on two CPUs: -march=native resolves to other macros.
        avx2 = self.TARGET + b"\n#define __AVX2__ 1"
        assert base != ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.0", native, avx2)
        assert base == ckernel._so_path(self.SRC, "/usr/bin/cc", b"cc 1.0", native, self.TARGET)

    @pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
    def test_target_probe_reads_the_compiler_macros(self):
        dump = ckernel._target(ckernel._compiler(), ("-O2",))
        assert b"#define __STDC__ 1" in dump.splitlines()

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
        source = ckernel._SOURCE.read_bytes()
        first = ckernel._compiled_path(source)
        assert built == [("-O3", "-march=native"), ("-O2",)]
        names = {flags: p for flags, p in _ladder_paths()}
        assert first == names[("-O2",)] != names[("-O3", "-march=native")]
        built.clear()
        assert ckernel._compiled_path(source) == first
        assert built == []


def _ladder_paths():
    import subprocess

    cc = ckernel._compiler()
    banner = subprocess.run([cc, "--version"], capture_output=True).stdout
    source = ckernel._SOURCE.read_bytes()
    return [
        (f, ckernel._so_path(source, cc, banner, f, ckernel._target(cc, f))) for f in LADDER
    ]


class TestParamLayout:
    """The parameter block is declared once, by ``STARNET_PARAMS`` in
    ``_ckernel.c``; Python fills it by name in the parsed order."""

    def test_abi_parsed_from_the_source(self):
        params, reasons = ckernel._abi(ckernel._SOURCE.read_bytes())
        assert len(params) == len(set(params))
        assert params[0] == "bd" and "run_state" in params and "pb_cap" in params
        assert reasons["STOP"] == 1
        assert sorted(reasons.values()) == [1 << k for k in range(len(reasons))]

    @pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
    @pytest.mark.parametrize(
        "declare, message",
        [
            (lambda params: params + ("spare",), r"missing \['spare'\]"),
            (lambda params: params[:-1], r"undeclared \['pb_cap'\]"),
        ],
        ids=["mapping_lacks_a_slot", "mapping_has_an_undeclared_name"],
    )
    def test_name_mismatch_raises_before_the_kernel_runs(self, star3, declare, message):
        """A mapping that lacks a declared name, or carries an undeclared
        one, is refused before ``starnet_run`` sees the block."""
        sim = ArraySimulator(star3, EnhancedNbc(), _cfg())
        if sim._ck is None:
            pytest.skip("compiled kernel unavailable")
        sim._ck_bundle = sim._ck_bundle._replace(params=declare(sim._ck_bundle.params))
        calls = []
        sim._ck = calls.append
        with pytest.raises(KernelABIError, match=message):
            sim.run()
        assert calls == []

    @pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
    def test_reordered_slots_keep_digests_identical(
        self, fresh_cache, monkeypatch, tmp_path, star3
    ):
        """Swap two slot lines in a copy of the source and build it: the
        block follows the declaration, so every cycle's state still
        equals the numpy passes'."""
        lines = ckernel._SOURCE.read_text().splitlines(keepends=True)
        a = next(i for i, ln in enumerate(lines) if "X(int64_t *, in_flight)" in ln)
        b = next(i for i, ln in enumerate(lines) if "X(int64_t *, completed)" in ln)
        lines[a], lines[b] = lines[b], lines[a]
        swapped = tmp_path / "_ckernel.c"
        swapped.write_text("".join(lines))
        monkeypatch.setattr(ckernel, "_SOURCE", swapped)
        bundle = ckernel.load_bundle()
        assert bundle is not None
        assert bundle.params.index("completed") < bundle.params.index("in_flight")
        cfg, seeds = _cfg(seed=5), [5, 6]
        compiled = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        numpy_only = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        numpy_only._ck = None
        assert compiled._ck_bundle is bundle
        assert state_digest(compiled) == state_digest(numpy_only)
        for cycle, (x, y) in enumerate(
            zip(run_digests(compiled, 300), run_digests(numpy_only, 300))
        ):
            assert x == y, f"state diverged at cycle {cycle}"
