"""Worker-process entry point and chaos hooks for the campaign engine.

One run = one short-lived process.  The worker calls the task function
and reports exactly one of two messages back through its pipe:

* ``("ok", value)`` — the task returned;
* ``("error", description)`` — the task raised (caught *inside* the
  worker, so a deterministic task bug is a structured ``task-error``
  outcome, never a dead worker).

Anything else — the process dying before a message lands (``os._exit``,
a segfault, the OOM killer) — is observed by the parent as pipe EOF and
classified ``worker-crashed``.  A worker that never reports at all is
killed by the parent's run timeout and classified ``worker-timeout``.

``CHAOS_KINDS`` are the engine's *self-test* faults: deliberately
crashing, hanging, or raising inside a worker, used by the CI
``campaign-smoke`` job and the test suite to prove the isolation,
retry, and resume machinery against real process death rather than
mocks.  Chaos only ever fires on a run's first attempt, so a retried
run completes and the merged report stays byte-identical to an
uninjected campaign.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

#: Exit code a chaos-crashed worker dies with (visible in the parent's
#: failure detail; distinct from Python's 0/1 so reports are readable).
CHAOS_EXIT_CODE = 23

#: Supported chaos kinds: simulate a hard crash, a livelocked hang, and
#: an unhandled task exception.
CHAOS_KINDS = ("crash", "hang", "raise")


def apply_chaos(kind: str) -> None:
    """Execute one injected worker failure (testing aid)."""
    if kind == "crash":
        # A hard death: no exception propagation, no cleanup, no result
        # message — exactly what an OOM kill looks like to the parent.
        os._exit(CHAOS_EXIT_CODE)
    elif kind == "hang":
        # A livelock stand-in: never returns; only the parent's run
        # timeout can end this worker.
        while True:  # pragma: no cover - killed by the parent
            time.sleep(60)
    elif kind == "raise":
        raise RuntimeError("injected chaos fault (kind=raise)")
    else:
        raise ValueError(f"unknown chaos kind {kind!r}")


def describe_error(exc: BaseException) -> str:
    """Stable one-line rendering of a task exception."""
    text = str(exc)
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


def worker_entry(
    task: Callable[[dict], object],
    payload: dict,
    conn,
    chaos: Optional[str],
) -> None:
    """Run ``task(payload)`` and report the outcome through ``conn``."""
    message: tuple
    try:
        if chaos is not None:
            apply_chaos(chaos)
        message = ("ok", task(payload))
    except Exception as exc:
        message = ("error", describe_error(exc))
    try:
        conn.send(message)
    except (OSError, ValueError):  # parent gone or result unpicklable
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
