"""Fixtures shared across the test tree."""

import threading

import pytest


@pytest.fixture()
def http_server():
    """``start(service, port=0)`` binds the service's HTTP front and
    serves it from a daemon thread; every server started is shut down
    and closed after the test.  The short poll interval keeps each
    shutdown from waiting out serve_forever's default 0.5 s poll."""
    from repro.serve import make_server

    servers = []

    def start(service, port=0):
        server = make_server(service, port=port)
        servers.append(server)
        threading.Thread(target=server.serve_forever,
                         kwargs={"poll_interval": 0.05},
                         daemon=True).start()
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
