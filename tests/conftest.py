"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import signal
import threading

import pytest

try:  # pragma: no cover - depends on the environment
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        """SIGALRM fallback for ``@pytest.mark.timeout(N)``.

        The dev extras pin ``pytest-timeout`` (CI installs it), but the
        suite must also fail fast — instead of hanging — where the plugin
        isn't available.  Only the per-test ``timeout`` marker is
        honoured, and only on the main thread of a POSIX platform.
        """
        marker = item.get_closest_marker("timeout")
        limit = float(marker.args[0]) if marker and marker.args else 0.0
        if limit <= 0 or threading.current_thread() is not threading.main_thread():
            yield
            return

        def _on_alarm(signum, frame):
            raise TimeoutError(
                f"test exceeded the {limit:g}s cap from @pytest.mark.timeout "
                "(SIGALRM fallback shim)"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pytest_collection_modifyitems(config, items):
    """Crypto-heavy tests default to TOY_PARAMS / fast backends.

    Tests marked ``heavy_crypto`` run the full 512-bit parameter set and
    are skipped unless ``REPRO_HEAVY_CRYPTO=1``, keeping tier-1 wall time
    below the seed's budget.
    """
    if os.environ.get("REPRO_HEAVY_CRYPTO") == "1":
        return
    skip_heavy = pytest.mark.skip(reason="set REPRO_HEAVY_CRYPTO=1 to run 512-bit crypto tests")
    for item in items:
        if "heavy_crypto" in item.keywords:
            item.add_marker(skip_heavy)
