"""Loading the C kernel: the cross-process cache
(``$REPRO_KERNEL_CACHE``), a supervisor-built object, a cold build."""

import os
import tempfile

import pytest

from repro.sim import npsim


def _reset_kernel_state(monkeypatch):
    """Give the test a virgin process-level kernel cache.

    monkeypatch restores the real compiled kernel afterwards, so other
    tests in the process keep their fast path.
    """
    monkeypatch.setattr(npsim, "_KERNEL", None)
    monkeypatch.setattr(npsim, "_KERNEL_ERROR", None)
    monkeypatch.setattr(npsim, "_KERNEL_TRIED", False)
    monkeypatch.setattr(npsim, "_PREBUILT", None)


def test_no_env_means_no_cache(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    assert npsim._kernel_cache_path() is None


def test_path_is_keyed_on_source(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    first = npsim._kernel_cache_path()
    assert first is not None and first.startswith(str(tmp_path))
    monkeypatch.setattr(npsim, "_KERNEL_SOURCE",
                        npsim._KERNEL_SOURCE + "\n/* v2 */\n")
    assert npsim._kernel_cache_path() != first


def test_publish_then_hit_without_a_compiler(monkeypatch, tmp_path):
    """A compile publishes the .so; the next load needs no compiler."""
    if not npsim.numpy_available():
        pytest.skip("numpy not installed")
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    _reset_kernel_state(monkeypatch)
    assert npsim._load_kernel() is not None
    cached = npsim._kernel_cache_path()
    assert cached is not None and os.path.exists(cached)
    # Second process (simulated): cache hit must not need a compiler.
    _reset_kernel_state(monkeypatch)
    monkeypatch.setattr(npsim, "_find_cc", lambda: None)
    assert npsim._load_kernel() is not None
    assert npsim._KERNEL_ERROR is None


def test_private_build_dir_removed(monkeypatch, tmp_path):
    """A cold load leaves no ``repro-np-kernel-*`` directory behind:
    the object stays mapped after its build dir is unlinked."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _reset_kernel_state(monkeypatch)
    assert npsim._load_kernel() is not None
    assert not [p for p in os.listdir(tmp_path)
                if p.startswith("repro-np-kernel-")]


def test_prebuilt_kernel_loads_without_a_compiler(monkeypatch, tmp_path):
    """A worker dlopens the object its supervisor built."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    so_path = str(tmp_path / "repro_kernel.so")
    npsim._compile_kernel(so_path)
    assert os.listdir(tmp_path) == ["repro_kernel.so"]
    _reset_kernel_state(monkeypatch)
    monkeypatch.setattr(npsim, "_find_cc", lambda: None)
    npsim.use_prebuilt_kernel(so_path)
    assert npsim._load_kernel() is not None
    # A missing prebuilt object falls back to a build (here: none).
    _reset_kernel_state(monkeypatch)
    npsim.use_prebuilt_kernel(str(tmp_path / "missing.so"))
    assert npsim._load_kernel() is None
    assert npsim._KERNEL_ERROR == "no C compiler found (set $CC)"
