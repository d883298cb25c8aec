"""Run ``repro serve`` with span recording around its layer boundaries.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -u perfbench/launcher.py SPANS.json serve --random 1000 ...

Everything after ``SPANS.json`` is passed to ``repro.cli.main``
unchanged.  Before the server starts, public module attributes are
wrapped (see :func:`install`); when the server has drained and
``main`` returns, the spans and the per-session admission stamps are
written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List

from spans import SpanRecorder


def install(recorder: SpanRecorder, admissions: List[list]) -> None:
    """Wrap the server-side layer boundaries the benchmark reports."""
    import repro.spfe.session as session_module
    from repro.exceptions import ProtocolError
    from repro.net import codec
    from repro.net.transport import SocketTransport
    from repro.spfe.session import ServerSession, SessionRegistry
    from repro.store.state import StateStore

    def first_receive(session: ServerSession, data: bytes) -> None:
        # A session's first bytes open with its HELLO; stamp the arrival
        # on CLOCK_MONOTONIC with the session id the client chose, so
        # the load generator can pair it with its connect time.
        if session.bytes_received:
            return
        stamp = time.monotonic()
        decoder = codec.FrameDecoder()
        decoder.feed(data)
        try:
            frame = next(decoder.frames(), None)
        except ProtocolError:
            return  # the session itself will answer the bad stream
        if frame is not None and frame.frame_type == codec.FrameType.HELLO:
            session_id = codec.decode_hello(frame.payload)[3]
            if session_id is not None:
                admissions.append([session_id.hex(), stamp])

    recorder.wrap(ServerSession, "receive_bytes", "spfe.session.receive",
                  before=first_receive)
    recorder.wrap(session_module, "multi_exponent", "crypto.fold")
    recorder.wrap(session_module, "check_ciphertext", "spfe.validation.check")
    recorder.wrap(codec, "decode_ciphertext_chunk", "net.codec.decode")
    recorder.wrap(SessionRegistry, "save", "spfe.session.registry_save")
    recorder.wrap(StateStore, "save_session", "store.journal_write")
    recorder.wrap(SocketTransport, "recv", "net.transport.recv")
    recorder.wrap(SocketTransport, "send", "net.transport.send")


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    spans_path, serve_argv = argv[0], argv[1:]
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    admissions: List[list] = []
    install(recorder, admissions)
    try:
        return repro_main(serve_argv)
    finally:
        dump: Dict[str, list] = {"spans": recorder.rows(), "admissions": admissions}
        with open(spans_path, "w") as handle:
            json.dump(dump, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
