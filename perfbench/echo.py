"""A raw asyncio TCP echo server: the machine's floor for one round trip.

Run as its own process (``python3 perfbench/echo.py``); it prints
``echo on 127.0.0.1:<port>`` and then answers every fixed-size message
with the same bytes until interrupted.  It reads exactly like the object
server does (``readexactly`` on an asyncio stream), so the ratio of an
object-server round trip to this one is the server's own per-request
cost, largely independent of how fast the host is.
"""

from __future__ import annotations

import asyncio
import signal

MESSAGE_BYTES = 32


async def _session(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            writer.write(await reader.readexactly(MESSAGE_BYTES))
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(_session, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    print(f"echo on 127.0.0.1:{port}", flush=True)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(main())
