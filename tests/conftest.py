import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lemmakit.terms import (
    Abs,
    App,
    Bound,
    Const,
    Free,
    Signature,
    SignatureEntry,
    TCon,
    TVar,
    fun,
)


@pytest.fixture
def table_builds(monkeypatch):
    """The symbol lists, as name tuples, of the `Signature` tables built
    while the test runs, in order."""
    built = []
    real = Signature.__init__

    def init(self, entries=()):
        real(self, entries)
        built.append(tuple(c.name for c in self))

    monkeypatch.setattr(Signature, "__init__", init)
    return built


OCTO = TCon("Octonions.octo")
BOOL = TCon("HOL.bool")
REAL = TCon("Real.real")
NAT = TCon("Nat.nat")


def octo_list(t):
    return TCon("List.list", (t,))


BINOP = fun(OCTO, fun(OCTO, OCTO))
EQ_OCTO = fun(OCTO, fun(OCTO, BOOL))


def plus(a, b):
    return App(App(Const("Octonions.octo_plus", BINOP), a), b)


def times(a, b):
    return App(App(Const("Octonions.octo_times", BINOP), a), b)


def eq(a, b):
    return App(App(Const("HOL.eq", EQ_OCTO), a), b)


@pytest.fixture(scope="session")
def octo_signature() -> Signature:
    return Signature(
        [
            SignatureEntry(
                "Octonions.octo_plus",
                BINOP,
                "octo_plus a b = Octo (Re a + Re b) ...",
            ),
            SignatureEntry(
                "Octonions.octo_times",
                BINOP,
                "octo_times a b = Octo (Re a * Re b - ...) ...",
            ),
        ]
    )


@pytest.fixture(scope="session")
def lemma_noncommutative():
    """not (ALL x y :: octo. x * y = y * x)"""
    all_ty = fun(fun(OCTO, BOOL), BOOL)
    inner_eq = App(
        App(
            Const("HOL.eq", EQ_OCTO),
            App(App(Const("Octonions.octo_times", BINOP), Bound(1)), Bound(0)),
        ),
        App(App(Const("Octonions.octo_times", BINOP), Bound(0)), Bound(1)),
    )
    quantified = App(
        Const("HOL.All", all_ty),
        Abs("x", OCTO, App(Const("HOL.All", all_ty), Abs("y", OCTO, inner_eq))),
    )
    return App(Const("HOL.Not", fun(BOOL, BOOL)), quantified)


@pytest.fixture(scope="session")
def lemma_distrib_left():
    """a * (b + c) = a * b + a * c"""
    a, b, c = Free("a", OCTO), Free("b", OCTO), Free("c", OCTO)
    return eq(times(a, plus(b, c)), plus(times(a, b), times(a, c)))


@pytest.fixture(scope="session")
def lemma_assoc_plus():
    """a + (b + c) = (a + b) + c"""
    a, b, c = Free("a", OCTO), Free("b", OCTO), Free("c", OCTO)
    return eq(plus(a, plus(b, c)), plus(plus(a, b), c))


@pytest.fixture(scope="session")
def candidate_symbols():
    """The candidate operator set used alongside the associativity template:
    +, -, ^ on reals; sin, cos on reals; len, rev, @ on lists."""
    a = TVar("'a")
    return [
        SignatureEntry("Groups.plus", fun(REAL, fun(REAL, REAL)), None),
        SignatureEntry("Groups.minus", fun(REAL, fun(REAL, REAL)), None),
        SignatureEntry("Transcendental.sin", fun(REAL, REAL), None),
        SignatureEntry("Transcendental.cos", fun(REAL, REAL), None),
        SignatureEntry("Power.power", fun(REAL, fun(REAL, REAL)), None),
        SignatureEntry("List.length", fun(octo_list(a), NAT), None),
        SignatureEntry("List.rev", fun(octo_list(a), octo_list(a)), None),
        SignatureEntry(
            "List.append", fun(octo_list(a), fun(octo_list(a), octo_list(a))), None
        ),
    ]


class StubEndpoint:
    """A local completion endpoint for the http proposer's tests.

    Every GET or POST is recorded in `requests_seen` and answered, after
    sleeping `delay` seconds, with `status`, the extra `headers` and
    {"completions": completions}.  `raw_body` (str or bytes) replaces that
    body; `raw_reply` (bytes) replaces the whole reply, status line included.
    `bodies` (a list of str) replaces the body of the first requests, one
    each, in the order they arrive.
    Each request is served on its own thread.
    """

    def __init__(self):
        self.completions = []
        self.status = 200
        self.headers = {}
        self.raw_body = None
        self.bodies = []
        self.raw_reply = None
        self.delay = 0.0
        self.requests_seen = []
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.stub = self
        self._server.daemon_threads = True
        # A caller that timed out has hung up; the late reply's broken pipe is
        # expected, not a fault to print.
        self._server.handle_error = lambda request, client_address: None
        # A short poll interval keeps shutdown() from waiting out the default 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_port}/complete"

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


class _StubHandler(BaseHTTPRequestHandler):
    def _reply(self):
        stub = self.server.stub
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        stub.requests_seen.append(
            {"body": json.loads(body) if body else None, "auth": self.headers.get("Authorization")}
        )
        time.sleep(stub.delay)
        if stub.raw_reply is not None:
            self.wfile.write(stub.raw_reply)
            return
        self.send_response(stub.status)
        for name, value in {"Content-Type": "application/json", **stub.headers}.items():
            self.send_header(name, value)
        self.end_headers()
        raw = stub.bodies.pop(0) if stub.bodies else stub.raw_body
        if raw is None and stub.status == 200:
            raw = json.dumps({"completions": stub.completions})
        if raw is not None:
            self.wfile.write(raw if isinstance(raw, bytes) else raw.encode())

    do_GET = do_POST = _reply

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_servers():
    """Starts a new StubEndpoint on each call; all stop at teardown."""
    started = []

    def start() -> StubEndpoint:
        started.append(StubEndpoint())
        return started[-1]

    yield start
    for stub in started:
        stub.close()


@pytest.fixture
def stub_server(stub_servers) -> StubEndpoint:
    return stub_servers()
