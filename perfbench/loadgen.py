"""HTTP load generation against ``repro serve`` running in its own process.

The generator is a single asyncio process with at most ``nproc`` keep-alive
connections.  The open loop sends each operation when it is due, whatever
the server's state, and times it from that due time, so a stall also
counts against every request queued behind it; the dispatcher's own
lateness is kept as a validity check.  The closed loop keeps every
connection busy with ``/query/batch`` requests to find capacity.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time

#: Seconds a spawned server may take to print its address, and to drain.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def decode(value) -> float:
    return math.inf if value == "inf" else value


class Connection:
    """One keep-alive HTTP/1.1 connection carrying one request at a time."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, path: str, document: dict) -> tuple[int, dict]:
        body = json.dumps(document).encode()
        self.writer.write(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        head = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length)
        return status, json.loads(payload) if payload else {}

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def open_loop(port: int, ops, conns: int, first_mutation: int = 0) -> dict:
    """Send ``ops`` (``(due_offset_s, op)``) on schedule.

    Mutations are sent one at a time, in order, so every remove finds its
    edge.  Each query result carries ``lo``/``hi``: the mutations
    acknowledged before it was sent and those sent before its reply, i.e.
    the range of graph states it may legitimately have been answered on,
    counting from ``first_mutation`` mutations already applied.
    """
    links = [await Connection.open(port) for _ in range(conns)]
    queue: asyncio.Queue = asyncio.Queue()
    results: list[dict | None] = [None] * len(ops)
    lags: list[float] = []
    mutations = {"sent": first_mutation, "acked": first_mutation}
    done_events: list[asyncio.Event] = []
    order: dict[int, int] = {}
    for i, (_, op) in enumerate(ops):
        if op[0] == "mutate":
            order[i] = len(done_events)
            done_events.append(asyncio.Event())
    start = time.perf_counter() + 0.05

    async def worker(link: Connection) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            due = start + ops[i][0]
            op = ops[i][1]
            if op[0] == "mutate":
                k = order[i]
                if k:
                    await done_events[k - 1].wait()
                _, kind, u, v = op
                item = {"op": kind, "u": u, "v": v}
                if kind == "add":
                    item["w"] = 1
                mutations["sent"] += 1
                sent = time.perf_counter_ns()
                status, payload = await link.post("/mutate", {"ops": [item]})
                mutations["acked"] += 1
                done_events[k].set()
                results[i] = {
                    "kind": "mutate", "status": status, "applied": payload.get("applied"),
                    "due_ns": int(due * 1e9), "sent_ns": sent, "end_ns": time.perf_counter_ns(),
                }
            else:
                _, s, t = op
                lo = mutations["acked"]
                sent = time.perf_counter_ns()
                status, payload = await link.post("/query", {"s": s, "t": t})
                results[i] = {
                    "kind": "query", "status": status, "s": s, "t": t,
                    "distance": decode(payload.get("distance")),
                    "lo": lo, "hi": mutations["sent"],
                    "due_ns": int(due * 1e9), "sent_ns": sent, "end_ns": time.perf_counter_ns(),
                }

    tasks = [asyncio.create_task(worker(link)) for link in links]
    try:
        for i, (offset, _) in enumerate(ops):
            delay = start + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, time.perf_counter() - start - offset))
            queue.put_nowait(i)
        for _ in tasks:
            queue.put_nowait(None)
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        for link in links:
            await link.close()
    return {"results": results, "lags": lags}


async def closed_loop(port: int, batches, conns: int, *, seconds=None, count=None) -> dict:
    """Keep ``conns`` connections busy with ``/query/batch`` requests,
    for ``seconds`` or until ``count`` batches have been sent."""
    links = [await Connection.open(port) for _ in range(conns)]
    results: list[dict] = []
    state = {"next": 0}
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf

    async def worker(link: Connection) -> None:
        while time.perf_counter() < deadline:
            i = state["next"]
            if count is not None and i >= count:
                return
            state["next"] = i + 1
            pairs = batches[i % len(batches)]
            sent = time.perf_counter_ns()
            status, payload = await link.post("/query/batch", {"pairs": pairs})
            results.append({
                "batch": i % len(batches), "status": status,
                "distances": [decode(d) for d in payload.get("distances", [])],
                "sent_ns": sent, "end_ns": time.perf_counter_ns(),
            })

    try:
        await asyncio.gather(*(worker(link) for link in links))
    finally:
        for link in links:
            await link.close()
    return {"results": results, "elapsed_s": time.perf_counter() - start}


class Server:
    """``python -m repro serve SNAPSHOT --mmap --dynamic`` in a child process."""

    def __init__(self, root, snapshot) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(snapshot), "--mmap",
             "--dynamic", "--port", "0", "--audit-dir", "-"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = self._read_port()
            self.ready_s = self._await_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = self.spawned + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                found = re.search(r"http://[^:/\s]+:(\d+)", line)
                if found:
                    return int(found.group(1))
            if self.proc.poll() is not None:
                break
        raise RuntimeError("repro serve did not announce its address")

    def _await_healthy(self) -> float:
        """Seconds from spawn to the first 200 on ``/healthz``."""
        deadline = self.spawned + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - self.spawned
            time.sleep(0.002)
        raise RuntimeError("repro serve never reported healthy")

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def stop(self) -> float:
        """SIGTERM, wait for the drain, and return the peak RSS in MB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        peak = 0.0
        while self.proc.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                peak = usage.ru_maxrss / 1024
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                deadline = math.inf
            time.sleep(0.01)
        self.proc.stdout.close()
        return peak
