"""Minimal keep-alive HTTP/1.1 client on raw sockets.

The load generator sends pre-encoded request bytes and frames responses
by ``Content-Length`` itself, so its own cost per request stays a few
microseconds; the orchestrator uses the blocking :class:`RawClient` for
the untimed priming pass.
"""

from __future__ import annotations

import socket

TIMEOUT_S = 60.0


def connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def parse_response(buf: bytearray):
    """``(status, body, must_close, consumed)`` once ``buf`` holds one
    whole response, else ``None``."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = bytes(buf[:head_end]).lower()
    status = int(head[9:12])
    at = head.find(b"content-length:")
    line_end = head.find(b"\r\n", at)
    length = int(head[at + 15 : line_end if line_end >= 0 else len(head)])
    end = head_end + 4 + length
    if len(buf) < end:
        return None
    return status, bytes(buf[head_end + 4 : end]), b"connection: close" in head, end


class RawClient:
    """One blocking keep-alive connection."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = connect(host, port)
        self.buf = bytearray()

    def send(self, data: bytes) -> tuple[int, bytes]:
        self.sock.sendall(data)
        while True:
            parsed = parse_response(self.buf)
            if parsed is not None:
                status, body, _must_close, end = parsed
                del self.buf[:end]
                return status, body
            chunk = self.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk

    def close(self) -> None:
        self.sock.close()
