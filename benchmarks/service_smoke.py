"""CI smoke for the sweep service: concurrency, crash, cache, identity.

One gating script, four phases:

1. **Serial reference** — ``repro fig09 --preset ci`` with the cache
   off: the ground truth the daemon must reproduce byte-for-byte.
2. **Concurrent clients + worker SIGKILL** — a daemon is started, two
   ``repro submit fig09 --preset ci`` clients race the same batch, and
   one isolated worker process is SIGKILLed mid-batch. Both clients
   must still print output byte-identical to the serial run, and the
   daemon's event log must show **exactly one completed execution per
   point digest** — the dedupe and retry guarantees, asserted from the
   durable record, not from exit codes.
3. **Warm resubmit** — a third client resubmits the figure; every point
   must be answered from the result store with zero new executions,
   fast. The client's ``repro: batch …`` summary must show no point
   queued or joined.
4. **Daemon SIGKILL + restart** — the daemon itself is killed without
   ceremony and restarted on the same spool; a resubmission must again
   be byte-identical, with no digest ever executed twice across both
   daemon lifetimes.

Run from the repository root:

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.client import ServiceClient, wait_until_ready  # noqa: E402
from repro.service.events import (  # noqa: E402
    executions_per_digest,
    read_events,
)

FIGURE_ARGS = ["fig09", "--preset", "ci"]


def log(message):
    print("service_smoke: %s" % message, flush=True)


def fail(message):
    print("service_smoke: FAIL: %s" % message, file=sys.stderr, flush=True)
    sys.exit(1)


def run_cli(args, env, timeout=600, with_stderr=False):
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )
    if proc.returncode != 0:
        fail(
            "repro %s exited %d\n%s"
            % (" ".join(args), proc.returncode, proc.stderr.decode())
        )
    if with_stderr:
        return proc.stdout, proc.stderr.decode()
    return proc.stdout


def batch_sources(stderr):
    """The ``{source: count}`` summary ``repro submit`` prints on stderr."""
    for line in stderr.splitlines():
        match = re.match(r"repro: batch \S+: (\{.*\})$", line)
        if match:
            return ast.literal_eval(match.group(1))
    fail("no 'repro: batch' summary on the client's stderr:\n%s" % stderr)


def child_pids(pid):
    """Direct children of ``pid`` via /proc (the isolated workers)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().split()
            if int(fields[3]) == pid:
                children.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return children


def main():
    home = tempfile.mkdtemp(prefix="rsmoke-", dir="/tmp")
    spool = os.path.join(home, "spool")
    sock = os.path.join(home, "s.sock")
    events_path = os.path.join(spool, "events.jsonl")

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env["REPRO_NO_CACHE"] = ""
    env["REPRO_CACHE_DIR"] = os.path.join(home, "cache")

    serial_env = dict(env)
    serial_env["REPRO_NO_CACHE"] = "1"

    daemon = None

    def start_daemon():
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--spool", spool, "--socket", sock, "--jobs", "2",
            ],
            env=env,
        )
        wait_until_ready(socket_path=sock, timeout=60)
        return proc

    try:
        # Phase 1: the serial ground truth.
        log("phase 1: serial reference (repro %s)" % " ".join(FIGURE_ARGS))
        serial = run_cli(FIGURE_ARGS + ["--jobs", "2"], serial_env)

        # Phase 2: two concurrent clients, one worker SIGKILLed.
        log("phase 2: daemon + 2 concurrent clients + worker SIGKILL")
        daemon = start_daemon()
        outputs = {}

        def submit(name):
            outputs[name] = run_cli(
                ["submit"] + FIGURE_ARGS + ["--socket", sock], env
            )

        threads = [
            threading.Thread(target=submit, args=(name,))
            for name in ("client-a", "client-b")
        ]
        for thread in threads:
            thread.start()

        # Wait for a worker process to exist, then SIGKILL it mid-batch.
        killed = None
        deadline = time.monotonic() + 120
        while killed is None and time.monotonic() < deadline:
            workers = child_pids(daemon.pid)
            if workers:
                killed = workers[0]
                os.kill(killed, signal.SIGKILL)
                log("SIGKILLed worker pid %d" % killed)
            else:
                time.sleep(0.05)
        if killed is None:
            fail("never saw an isolated worker process to kill")

        for thread in threads:
            thread.join(timeout=600)
            if thread.is_alive():
                fail("a submit client hung")

        for name, output in sorted(outputs.items()):
            if output != serial:
                fail("%s output differs from the serial run" % name)
        log("both concurrent clients byte-identical to serial")

        counts = executions_per_digest(read_events(events_path))
        if not counts:
            fail("event log records no completed executions")
        duplicated = {d: c for d, c in counts.items() if c != 1}
        if duplicated:
            fail("digests not executed exactly once: %r" % duplicated)
        log(
            "dedupe held: %d digests, every one executed exactly once "
            "(worker kill included)" % len(counts)
        )

        # Phase 3: warm resubmit — answered from the result store, fast.
        log("phase 3: warm resubmit")
        t0 = time.monotonic()
        warm, warm_err = run_cli(
            ["submit"] + FIGURE_ARGS + ["--socket", sock], env, with_stderr=True
        )
        elapsed = time.monotonic() - t0
        sources = batch_sources(warm_err)
        if sources.get("queued") != 0 or sources.get("joined") != 0:
            fail("warm resubmit was not answered from the store: %r" % sources)
        if warm != serial:
            fail("warm resubmit output differs from the serial run")
        after = executions_per_digest(read_events(events_path))
        if after != counts:
            fail("warm resubmit triggered new executions")
        log(
            "warm resubmit byte-identical, 0 new executions, %d points from"
            " the store, %.2fs" % (sources.get("cache", 0), elapsed)
        )
        if elapsed > 30:
            fail("warm resubmit took %.2fs (expected ~1s)" % elapsed)

        # Phase 4: SIGKILL the daemon, restart on the same spool.
        log("phase 4: daemon SIGKILL + restart on the same spool")
        daemon.kill()
        daemon.wait()
        daemon = start_daemon()
        recovered = run_cli(["submit"] + FIGURE_ARGS + ["--socket", sock], env)
        if recovered != serial:
            fail("post-restart resubmit differs from the serial run")
        final = executions_per_digest(read_events(events_path))
        duplicated = {d: c for d, c in final.items() if c > 1}
        if duplicated:
            fail("restart re-executed digests: %r" % duplicated)
        log("restarted daemon byte-identical, no digest executed twice")
        log("OK")
        return 0
    finally:
        if daemon is not None and daemon.poll() is None:
            try:
                with ServiceClient(socket_path=sock) as client:
                    client.shutdown()
                daemon.wait(timeout=30)
            except Exception:
                daemon.kill()
                daemon.wait()
        shutil.rmtree(home, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
