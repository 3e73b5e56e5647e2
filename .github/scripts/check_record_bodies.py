"""Diff a live graph server's record bodies against local JSON encoding.

Usage::

    python .github/scripts/check_record_bodies.py SNAPSHOT URL [API_KEY]

Fetches every node of the CSR snapshot SNAPSHOT from the server at URL twice
with ``GET /node`` (the server's record memo cold, then warm) and once with
``POST /nodes`` in batches of 16.  Each body must equal
``json.dumps(record_to_wire(record))`` of the local record (or of the
``{"records": [...]}`` batch) byte for byte.  Exits non-zero on the first
difference.
"""

from __future__ import annotations

import http.client
import json
import sys
import urllib.parse

from repro.api.remote import encode_node_id, record_to_wire
from repro.storage import load_snapshot

BATCH = 16


def main(snapshot: str, url: str, api_key: str = "") -> None:
    backend = load_snapshot(snapshot)
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["X-Api-Key"] = api_key

    def check(method: str, target: str, request, expected) -> None:
        body = None if request is None else json.dumps(request).encode("utf-8")
        connection.request(method, target, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        want = json.dumps(expected).encode("utf-8")
        if response.status != 200 or data != want:
            raise SystemExit(
                f"{method} {target} {request or ''}: HTTP {response.status}\n"
                f"  served: {data[:300]!r}\n  local:  {want[:300]!r}"
            )

    nodes = backend.node_ids()
    for _ in range(2):
        for node in nodes:
            check("GET", "/node/" + encode_node_id(node), None,
                  record_to_wire(backend.fetch(node)))
    for start in range(0, len(nodes), BATCH):
        batch = nodes[start:start + BATCH]
        records = [record_to_wire(record) for record in backend.fetch_many(batch)]
        check("POST", "/nodes", {"nodes": batch}, {"records": records})
    connection.close()
    batches = -(-len(nodes) // BATCH)
    print(f"{2 * len(nodes)} GET /node and {batches} POST /nodes bodies "
          f"byte-identical to local json.dumps")


if __name__ == "__main__":
    main(*sys.argv[1:])
