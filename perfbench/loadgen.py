"""Open-loop HTTP load process: two threads, two keep-alive connections.

Phases run back to back.  A phase carrying ``stop_p99_ms`` is a rung
of a rate ladder: once it is over, a p99 above that limit ends the run
instead of climbing to the next rung.

Run as its own process (``python3 perfbench/loadgen.py PLAN OUT``) so
the load never shares an interpreter with the system under test.  The
plan fixes every request and its due time up front; request ``i`` of a
phase with rate ``r`` is due ``i / r`` seconds after the phase starts,
whatever happened to earlier requests.  Each latency is measured from
the due time, so a stall is charged to every request it delays.

Each thread opens a fresh connection every ``RECYCLE`` requests, as a
stream of independent clients would.  The kernel's ``SO_REUSEPORT``
hashing then spreads the load over the workers request by request,
rather than once per run, where two long-lived connections would land
on the same worker half the time.

The generator also reports its own lateness: how long after a request
was due *and* a connection was free it actually went out.  If that is
high, the run measured the generator, not the system.

All times are ``time.monotonic()`` (CLOCK_MONOTONIC), which every
process on the machine shares, so the plan's ``start_at`` lines up
with the master's own clock.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

RECYCLE = 8


def _schedule(plan: dict) -> list[tuple[int, float]]:
    """``(phase index, due offset)`` for every request, in send order."""
    due = []
    offset = 0.0
    for index, phase in enumerate(plan["phases"]):
        count = int(round(phase["rate"] * phase["duration"]))
        step = 1.0 / phase["rate"]
        due.extend((index, offset + i * step) for i in range(count))
        offset += phase["duration"]
    return due


class _Sender:
    """Pulls the next due request, sends it, records the outcome."""

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.due = _schedule(plan)
        self.requests = plan["requests"]
        if len(self.requests) < len(self.due):
            raise SystemExit("plan carries fewer requests than its schedule")
        self.start = plan["start_at"]
        self.record_every = plan.get("record_every", 0)
        self.lock = threading.Lock()
        self.next = 0
        # Per request: [phase, due, latency, late, status]; status -1
        # marks a transport error.  Requests never sent stay None.
        self.rows: list[list] = [None] * len(self.due)
        self.bodies: dict[int, str] = {}

    def _take(self) -> int | None:
        with self.lock:
            index = self.next
            if index >= len(self.due):
                return None
            phase = self.due[index][0]
            if index and phase != self.due[index - 1][0] and self._failed(phase - 1):
                self.next = len(self.due)  # a ladder rung failed: stop
                return None
            self.next += 1
            return index

    def _failed(self, phase: int) -> bool:
        """Whether a finished ladder rung broke the plan's p99 limit."""
        limit = self.plan["phases"][phase].get("stop_p99_ms")
        if limit is None:
            return False
        latencies = sorted(row[2] for row in self.rows
                           if row is not None and row[0] == phase)
        if not latencies:
            return False
        return latencies[int(0.99 * (len(latencies) - 1))] * 1000.0 > limit

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.plan["host"], self.plan["port"],
                                          timeout=30.0)

    def run(self) -> None:
        conn = self._connect()
        sent = 0
        try:
            while (index := self._take()) is not None:
                if sent and sent % RECYCLE == 0:
                    conn.close()
                    conn = self._connect()
                conn = self._one(conn, index)
                sent += 1
        finally:
            conn.close()

    def _one(self, conn, index: int):
        phase, offset = self.due[index]
        spec = self.requests[index]
        due = self.start + offset
        free = time.monotonic()
        if free < due:
            time.sleep(due - free)
        sent = time.monotonic()
        late = sent - max(due, free)
        body = None
        headers = {}
        if spec.get("body") is not None:
            body = json.dumps(spec["body"]).encode()
            headers["Content-Type"] = "application/json"
        try:
            conn.request(spec["method"], spec["path"], body=body,
                         headers=headers)
            response = conn.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            conn.close()
            conn = self._connect()
            payload, status = b"", -1
        done = time.monotonic()
        self.rows[index] = [phase, offset, done - due, late, status]
        if self.record_every and index % self.record_every == 0 and status == 200:
            self.bodies[index] = payload.decode("utf-8")
        return conn


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: loadgen.py PLAN.json OUT.json", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    sender = _Sender(plan)
    helper = threading.Thread(target=sender.run, name="loadgen-1")
    helper.start()
    sender.run()  # the main thread drives the second connection
    helper.join()
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump({"rows": [row for row in sender.rows if row is not None],
                   "bodies": {str(k): v for k, v in sender.bodies.items()}},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
