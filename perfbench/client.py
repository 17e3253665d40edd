"""A minimal client for the certificate server's framed socket protocol.

Frame: a 4-byte big-endian length, then a payload.  Payload: fields joined
by '|', each escaped ('\\' -> '\\\\', '|' -> '\\p'); requests and
responses are [tag, compact JSON].  A query is answered by zero or more
"progress" frames and then one "result" or "error" frame.
"""

import json
import re
import socket
import struct
import time

WIRE_VERSION = "fair-service/1"
_UNESCAPE = re.compile(rb"\\(.)", re.S)


def _unescape(field):
    def sub(m):
        c = m.group(1)
        if c == b"\\":
            return b"\\"
        if c == b"p":
            return b"|"
        raise ValueError("bad wire escape")

    return _UNESCAPE.sub(sub, field) if b"\\" in field else field


def encode(tag, body):
    fields = [tag.encode(), json.dumps(body, separators=(",", ":")).encode()]
    payload = b"|".join(f.replace(b"\\", b"\\\\").replace(b"|", b"\\p") for f in fields)
    return struct.pack(">I", len(payload)) + payload


def search_frame(experiment, budget, seed, trace_id=None):
    body = {"v": WIRE_VERSION, "kind": "search", "experiment": experiment,
            "budget": budget, "seed": seed, "zoo": False, "fresh": False}
    if trace_id:
        body["trace_id"] = trace_id
    return encode("query", body)


def decode(payload):
    """(tag, parsed JSON body) of one response payload."""
    fields = payload.split(b"|")
    if len(fields) != 2:
        raise ValueError("expected 2 wire fields, got %d" % len(fields))
    return _unescape(fields[0]).decode(), json.loads(_unescape(fields[1]))


class Conn:
    def __init__(self, path, timeout=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = bytearray()

    def close(self):
        self.sock.close()

    def _frame(self):
        while True:
            if len(self.buf) >= 4:
                (n,) = struct.unpack_from(">I", self.buf)
                if len(self.buf) >= 4 + n:
                    payload = bytes(self.buf[4:4 + n])
                    del self.buf[:4 + n]
                    return payload
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk

    def ask(self, frame):
        """Send one request; return (seconds to the final frame, progress
        frames seen, final payload).  The clock covers send to the last
        byte of the answer; decoding is left to the caller, off the clock."""
        t0 = time.perf_counter()
        self.sock.sendall(frame)
        progress = 0
        while True:
            payload = self._frame()
            if payload.startswith(b"progress|"):
                progress += 1
                continue
            return time.perf_counter() - t0, progress, payload

    def request(self, tag):
        _, _, payload = self.ask(encode(tag, {"v": WIRE_VERSION}))
        return decode(payload)
