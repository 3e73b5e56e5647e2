"""Shared pieces of the lean HTTP/1.1 wire, used by both server frontends.

The thread-per-connection :mod:`repro.server.app` and the asyncio
:mod:`repro.server.aio` frontends frame requests by the same rules, so the
rules that carry correctness weight live here once:

* :class:`LeanHeaders` — the case-insensitive raw-bytes header map the fast
  request path builds instead of an ``email.message.Message``;
* :func:`fold_header_line` — one line of a header block into that map,
  enforcing the stdlib sanity caps (:data:`MAX_LINE` bytes per line,
  :data:`MAX_HEADERS` header lines) and rejecting malformed lines *and
  conflicting duplicates* (two different ``Content-Length`` values is the
  classic request-smuggling shape: whichever copy a proxy honours, this
  service must refuse rather than pick one);
* :func:`body_length` — the request body's framing, refusing any
  ``Transfer-Encoding`` (the other smuggling shape) and any ``Content-Length``
  that is not a plain non-negative integer;
* :func:`reachable_url` — a client-connectable URL for a bound address
  (wildcard binds resolved to loopback, IPv6 hosts bracketed).

Every refusal is a :class:`HeaderLineError` carrying the HTTP status; the
frontends answer it with the router's typed JSON body and
``Connection: close``.
"""

from __future__ import annotations

from typing import Dict

#: Hard cap on one request/status/header line (mirrors http.client).
MAX_LINE = 65536
#: Hard cap on header lines per request (mirrors http.client's _MAXHEADERS).
MAX_HEADERS = 100


class LeanHeaders:
    """Case-insensitive header lookup over raw ``bytes`` pairs.

    The fast-path request parsers store headers as lowercased
    ``bytes -> bytes``; this wrapper answers the one call the handlers make
    — ``self.headers.get("Content-Length")`` — without ever building an
    ``email.message.Message``.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: Dict[bytes, bytes]) -> None:
        self._raw = raw

    def get(self, name: str, default=None):
        value = self._raw.get(name.lower().encode("iso-8859-1"))
        return value.decode("iso-8859-1") if value is not None else default


class HeaderLineError(Exception):
    """A request the server must refuse while framing it, with the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def fold_header_line(raw: Dict[bytes, bytes], line: bytes) -> bool:
    """Fold one raw line of a request's header block into the lowercased ``raw``.

    Returns ``True`` at the blank line that ends the block.  Raises
    :class:`HeaderLineError` 431 for a line over :data:`MAX_LINE` bytes or a
    block over :data:`MAX_HEADERS` lines (without a cap one connection could
    grow the map without bound), and 400 for a line without a colon and for
    *conflicting duplicates* — the same header name arriving twice with
    different values.  Two ``Content-Length`` headers that disagree are a
    request-smuggling probe, not a client bug to paper over; refusing every
    conflicting duplicate (not just Content-Length) keeps the rule simple and
    the parser state canonical.  Repeats with the *same* value stay accepted,
    as retrying proxies occasionally produce them harmlessly.
    """
    if len(line) > MAX_LINE:
        raise HeaderLineError(431, "Line too long")
    if line in (b"\r\n", b"\n"):
        return True
    if len(raw) >= MAX_HEADERS:
        raise HeaderLineError(431, "Too many headers")
    name, separator, value = line.partition(b":")
    if not separator:
        raise HeaderLineError(400, f"Malformed header line {line!r}")
    key = name.strip().lower()
    value = value.strip()
    previous = raw.get(key)
    if previous is not None and previous != value:
        raise HeaderLineError(
            400,
            f"Conflicting duplicate header {key.decode('iso-8859-1')!r}",
        )
    raw[key] = value
    return False


def body_length(headers) -> int:
    """The length of the request body that follows ``headers``.

    ``Transfer-Encoding`` is refused outright: this wire frames every body by
    ``Content-Length``, and a request carrying both is the smuggling shape in
    which a proxy that honours ``Transfer-Encoding`` sees one request where
    this server would see two.  A ``Content-Length`` that is not a plain
    non-negative decimal integer is refused too, rather than guessed at
    (``rfile.read(-1)`` would block on a keep-alive socket).
    """
    if headers.get("Transfer-Encoding") is not None:
        raise HeaderLineError(
            400, "Transfer-Encoding is not supported; frame the body by Content-Length"
        )
    value = headers.get("Content-Length")
    if value is None:
        return 0
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        raise HeaderLineError(400, "Content-Length is not a non-negative integer")
    return int(value)


def reachable_url(host, port) -> str:
    """A URL a client on this machine can actually connect to.

    A server bound to a wildcard address (``0.0.0.0`` / ``::``) reports that
    literal address back from ``getsockname``, but connecting to it is
    platform-dependent at best; resolve to the matching loopback.  IPv6
    literals must travel bracketed inside a URL authority, or the colons
    parse as a port separator.
    """
    host = str(host)
    if host == "0.0.0.0":
        host = "127.0.0.1"
    elif host == "::":
        host = "::1"
    if ":" in host:
        host = f"[{host}]"
    return f"http://{host}:{port}"
